// Package durable owns the disk-facing code crash safety rests on: Log,
// the one append-only JSON-lines file behind the sweep journal and the
// accept WAL, its flock, and the FS/File seam every durable path does
// its disk operations through — OSFS (1:1 with package os) in
// production, FaultFS in tests, which injects ENOSPC mid-append, torn
// writes and unreadable entries deterministically.
package durable

import (
	"io"
	"io/fs"
	"os"
	"time"
)

// FS is the set of filesystem operations the logs and the result store
// need. Implementations must be safe for concurrent use.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (fs.FileInfo, error)
	Chtimes(name string, atime, mtime time.Time) error
}

// File is the open-file surface the durable paths use: sequential
// reads for replay, appends, fsync, tail truncation, and the raw fd
// for the advisory flock.
type File interface {
	io.ReadWriteCloser
	Name() string
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Fd() uintptr
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (OSFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return file(os.OpenFile(name, flag, perm))
}

func (OSFS) CreateTemp(dir, pattern string) (File, error) {
	return file(os.CreateTemp(dir, pattern))
}

// file keeps a failed open a nil File rather than a typed-nil *os.File.
func file(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OSFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                   { return os.Remove(name) }
func (OSFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (OSFS) Chtimes(name string, a, m time.Time) error  { return os.Chtimes(name, a, m) }
