//go:build !unix

package durable

// lock is a no-op where flock is unavailable; a locked directory then
// relies on the caller not sharing it across processes.
func lock(fd uintptr) error { return nil }
