//go:build unix

package durable

import "syscall"

// lock takes a non-blocking exclusive advisory flock on fd; a held lock
// fails with syscall.EWOULDBLOCK.
func lock(fd uintptr) error {
	return syscall.Flock(int(fd), syscall.LOCK_EX|syscall.LOCK_NB)
}
