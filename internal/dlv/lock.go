package dlv

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// One writer at a time, across processes. Every verb that changes the
// repository — Commit (and Copy), Archive, Repack and Add — runs under
// an exclusive flock on the .dlv directory (lock_flock.go), which the kernel
// drops when the holder's descriptor closes, however its process ends: a
// kill -9 leaves no lock behind. Readers take no lock; they see the catalog and manifest that
// atomicfile last renamed into place. The catalog carries a generation that
// every save increments, so a writer that gets the lock re-reads the
// catalog, and drops its memoized archive, when another handle saved since
// it last read: ids stay dense and unique however many processes commit.

// lockWriter takes the repository's writer lock and brings the handle up to
// date with the catalog on disk. The caller makes its change, then calls
// unlock, which closes the descriptor and so drops the lock. It must not
// already hold the lock: a second lock on the same handle waits for the
// first, like one from another process.
func (r *Repo) lockWriter() (unlock func() error, err error) {
	dir, err := os.Open(filepath.Join(r.root, dlvDir))
	if err != nil {
		return nil, fmt.Errorf("%w: locking the repository: %v", ErrRepo, err)
	}
	if err := r.lockAndRefresh(dir); err != nil {
		return nil, errors.Join(err, dir.Close())
	}
	return dir.Close, nil
}

// lockAndRefresh waits for the exclusive lock on dir, then refreshes.
func (r *Repo) lockAndRefresh(dir *os.File) error {
	if err := lockExclusive(dir); err != nil {
		return fmt.Errorf("%w: locking the repository: %v", ErrRepo, err)
	}
	return r.refresh()
}

// refresh re-reads the catalog when its generation is not the one this
// handle last read or wrote. The memoized archive goes with it, since the
// other writer may have changed that too.
func (r *Repo) refresh() error {
	path := filepath.Join(r.root, dlvDir, catalogFile)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRepo, err)
	}
	defer f.Close()
	gen := catalogGeneration(f)
	r.mu.RLock()
	fresh := gen == r.gen
	r.mu.RUnlock()
	if fresh {
		return nil
	}
	recs, gen, err := loadCatalog(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.versions, r.gen = recs, gen
	r.mu.Unlock()
	return r.setArchive(nil)
}

// catalogGeneration reads the generation that leads a catalog document,
// decoding nothing after it. A document that does not open with one, as a
// catalog saved before generations were kept, is generation 0.
func catalogGeneration(doc io.Reader) int64 {
	dec := json.NewDecoder(doc)
	var gen int64
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return 0
	}
	if t, err := dec.Token(); err != nil || t != "generation" {
		return 0
	}
	if err := dec.Decode(&gen); err != nil {
		return 0
	}
	return gen
}
