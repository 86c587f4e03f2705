// Package atomicfile replaces whole files durably: a crash or a failed step
// leaves either the old file or the complete new one, never a torn or
// truncated file, and a nil error means the new file survives power loss.
// The PAS manifest and segment index, the DLV catalog, each version's raw
// weights file and each DLV object are written this way.
package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
)

// TempPrefix starts the name of the temp file WriteFile writes beside its
// target. A crash between create and rename leaves one behind; a directory's
// owner may sweep them on open.
const TempPrefix = ".tmp-"

// WriteFile replaces path with blob: a temp file in path's directory, write,
// fsync, rename over path, fsync of the directory. On failure the temp file
// is removed and path is untouched.
func WriteFile(path string, blob []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(blob); err != nil {
		return errors.Join(err, f.Close(), os.Remove(tmp))
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close(), os.Remove(tmp))
	}
	if err := f.Close(); err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	if err := os.Rename(tmp, path); err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so an entry just renamed into it is durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return errors.Join(err, d.Close())
	}
	return d.Close()
}
