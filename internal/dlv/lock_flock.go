//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package dlv

import (
	"os"
	"syscall"
)

// lockExclusive waits for an exclusive flock(2) on f, waiting again when a
// signal interrupts the wait.
func lockExclusive(f *os.File) error {
	for {
		if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != syscall.EINTR {
			return err
		}
	}
}
