//go:build unix

package durable

import "syscall"

// lock takes a non-blocking advisory flock on a log file. A second
// opener — a stray CLI racing a daemon, or two daemons pointed at the
// same path — gets syscall.EWOULDBLOCK instead of silently interleaving
// appends. The lock lives with the file descriptor and is released
// automatically on Close or process death, so a crashed holder never
// wedges the path.
func lock(fd uintptr) error {
	return syscall.Flock(int(fd), syscall.LOCK_EX|syscall.LOCK_NB)
}
