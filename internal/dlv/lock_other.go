//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package dlv

import "os"

// lockExclusive takes no lock where Go's syscall package has no flock(2)
// (Windows, Solaris, AIX, Plan 9, wasm). There, writers in different
// processes or handles are not kept apart; each still re-reads a catalog
// that another saved before it began.
func lockExclusive(*os.File) error { return nil }
