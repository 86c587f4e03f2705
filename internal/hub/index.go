package hub

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"modelhub/internal/atomicfile"
	"modelhub/internal/obs"
)

// The index is two files in the data directory. index.json is the whole
// name → RepoInfo map as of the last fold. index.log holds one JSON record
// per line, one per commit since then, each an upsert of its name. A commit
// appends and fsyncs one record, so its cost does not grow with the number
// of names. Once the log holds more records than the index has entries, the
// log is folded: index.json is rewritten through atomicfile and the log is
// truncated. A fold costs O(names) once per O(names) commits.
//
// Startup replays index.json and then the log. A record counts once its
// newline is down: a final line without one, or a final line that is not
// JSON, is a torn append whose publish was never acknowledged, and it is
// dropped. A torn append leaves cut or zeroed bytes, never a whole JSON
// value, so a line that is not JSON before the end, or any line that is
// JSON but not a valid record, is corruption (ErrHub). A crash between a
// fold's rename and its truncation leaves records that index.json already
// holds; replaying them again gives the same index.
//
// A server from before index.log reads index.json alone and deletes the
// blobs it does not name, so it must not serve a directory whose log holds
// records: every publish since the last fold would lose its blob. A
// restart folds the log, which makes the directory safe for it again
// (DESIGN §9).

const (
	indexFile = "index.json"
	logFile   = "index.log"
)

// indexLog is the append side of the index. Server.logMu guards it.
type indexLog struct {
	size    int64 // bytes of whole records in the log
	records int   // records appended since the last fold
	// dirty is set when a failed append may have left bytes past size that
	// could not be cut off; the next append folds first.
	dirty bool
}

func (s *Server) indexPath() string { return filepath.Join(s.dir, indexFile) }
func (s *Server) logPath() string   { return filepath.Join(s.dir, logFile) }

// loadIndex reads index.json and index.log into s.index. It writes nothing:
// a refused directory is left as it was.
func (s *Server) loadIndex() error {
	idx, err := os.ReadFile(s.indexPath())
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("%w: %v", ErrHub, err)
	}
	lg, err := os.ReadFile(s.logPath())
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("%w: %v", ErrHub, err)
	}
	index, records, err := parseIndex(idx, lg)
	if err != nil {
		return err
	}
	s.index = index
	// NewServer folds a non-empty log, torn lines and all, so the first
	// append starts on an empty file.
	s.log.size, s.log.records = int64(len(lg)), records
	return nil
}

// parseIndex replays an index.json body (nil or empty: none) and an
// index.log body into one map and returns it with the number of records it
// applied. Every entry it returns carries a valid name and digest.
func parseIndex(idx, lg []byte) (map[string]RepoInfo, int, error) {
	index := map[string]RepoInfo{}
	if len(idx) > 0 {
		if err := json.Unmarshal(idx, &index); err != nil {
			return nil, 0, fmt.Errorf("%w: corrupt index: %v", ErrHub, err)
		}
		if index == nil { // the body was JSON null
			index = map[string]RepoInfo{}
		}
		for key, info := range index {
			if info.SHA256 == "" {
				return nil, 0, fmt.Errorf("%w: index entry %q has no sha256: a pre-digest data directory, which is not read", ErrHub, key)
			}
			if err := checkRecord(info); err != nil || info.Name != key {
				return nil, 0, fmt.Errorf("%w: corrupt index entry %q", ErrHub, key)
			}
		}
	}
	lines := bytes.Split(lg, []byte{'\n'})
	// The piece after the last newline is empty for a whole log, and a torn
	// append otherwise; either way it is not a record.
	lines = lines[:len(lines)-1]
	records := 0
	for i, line := range lines {
		var info RepoInfo
		if err := json.Unmarshal(line, &info); err != nil {
			if i == len(lines)-1 {
				break // torn final line
			}
			return nil, 0, fmt.Errorf("%w: corrupt index log line %d: %v", ErrHub, i+1, err)
		}
		if err := checkRecord(info); err != nil {
			return nil, 0, fmt.Errorf("%w: corrupt index log line %d: %v", ErrHub, i+1, err)
		}
		index[info.Name] = info
		records++
	}
	return index, records, nil
}

// checkRecord accepts a record only with a name a publish could have
// carried and a digest in digestString's form.
func checkRecord(info RepoInfo) error {
	if err := validateName(info.Name); err != nil {
		return err
	}
	if len(info.SHA256) != 64 {
		return fmt.Errorf("%w: bad digest %q", ErrHub, info.SHA256)
	}
	for _, c := range info.SHA256 {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return fmt.Errorf("%w: bad digest %q", ErrHub, info.SHA256)
		}
	}
	return nil
}

// record makes info durable and then visible: one line appended to the log
// and fsynced, then the in-memory index updated. It folds the log when the
// log has grown past the index. A failed fold is logged, not returned: the
// record is already durable in the log.
func (s *Server) record(info RepoInfo) error {
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log.dirty {
		if err := s.foldLocked(); err != nil {
			return err
		}
	}
	if err := s.appendLocked(line); err != nil {
		return err
	}
	s.mu.Lock()
	s.index[info.Name] = info
	n := len(s.index)
	s.mu.Unlock()
	s.log.records++
	if s.log.records > n {
		if err := s.foldLocked(); err != nil {
			obs.Logger().Warn("index fold failed; the log keeps the records", "err", err)
		}
	}
	return nil
}

// appendLocked writes line at the end of the log's whole records and
// fsyncs it. It fsyncs the directory first, and that one fsync makes two
// names durable: the blob commit renamed in, which its record must never
// outlive, and the log's own, the first time an append creates it. On
// failure it cuts the log back to its whole records, or marks it dirty when
// it cannot.
func (s *Server) appendLocked(line []byte) error {
	f, err := os.OpenFile(s.logPath(), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	err = atomicfile.SyncDir(s.dir)
	if err == nil {
		_, err = f.WriteAt(line, s.log.size)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		if terr := f.Truncate(s.log.size); terr != nil {
			s.log.dirty = true
		}
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	s.log.size += int64(len(line))
	return nil
}

// foldLocked rewrites index.json from the in-memory index and empties the
// log. The rename is durable before the truncation, so a crash between the
// two replays records index.json already holds.
func (s *Server) foldLocked() error {
	s.mu.RLock()
	blob, err := json.MarshalIndent(s.index, "", " ")
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFile(s.indexPath(), blob); err != nil {
		return err
	}
	if err := os.Truncate(s.logPath(), 0); err != nil {
		return err
	}
	s.log = indexLog{}
	return nil
}
