// Package durable owns the disk-facing code crash safety rests on:
// Store, the checksummed, content-addressed directory of entries that
// holds every process's results and memnetd's accepted jobs; Lock, the
// flock that keeps one writer per directory; and the FS/File seam every
// durable path does its disk operations through — OSFS (1:1 with
// package os) in production, FaultFS in tests, which injects ENOSPC,
// torn writes, failed fsyncs and unreadable entries deterministically.
package durable

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"
)

// FS is the set of filesystem operations the result store and the
// lock need. Implementations must be safe for concurrent use.
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
	// SyncDir fsyncs a directory, making the renames and creations in
	// it durable.
	SyncDir(name string) error
}

// File is the open-file surface the durable paths use: writes, fsync,
// and the raw fd for the advisory flock.
type File interface {
	io.WriteCloser
	Name() string
	Sync() error
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

func (OSFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Lock opens (creating if needed) the file at path on fsys (nil = the
// real filesystem) and takes a non-blocking exclusive flock on it. A
// second holder — a stray process racing a daemon, or two daemons
// pointed at one path — gets an error instead of a shared writer. The
// lock lives with the descriptor: Close, or the death of the process,
// releases it, so a crashed holder never wedges the path.
func Lock(path string, fsys FS) (io.Closer, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lock(f.Fd()); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s is locked by another process (flock: %w); "+
			"stop the other process or use a different path", path, err)
	}
	return f, nil
}
