//go:build !unix

package durable

// lock is a no-op where flock is unavailable; a log then relies on the
// caller not sharing paths across processes.
func lock(fd uintptr) error { return nil }
