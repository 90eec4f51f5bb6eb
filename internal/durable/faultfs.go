// FaultFS is the injectable-fault half of the fs seam: it wraps a real
// FS and fails selected operations on demand — a persistent ENOSPC, a
// one-shot read error, a failed directory fsync, a torn write that
// persists only a prefix before failing (the on-disk signature of a
// crash mid-write). Rules match deterministically (first added, first
// matched), so soak tests replay byte-identically under a fixed seed. It is not a _test file so every
// package's fault tests share it; production binaries never build one.
package durable

import (
	"io/fs"
	"strings"
	"sync"
	"time"
)

// FaultOp names an interceptable filesystem operation.
type FaultOp string

const (
	OpMkdir   FaultOp = "mkdir"
	OpOpen    FaultOp = "open"
	OpCreate  FaultOp = "create"
	OpRead    FaultOp = "read"
	OpReadDir FaultOp = "readdir"
	OpRename  FaultOp = "rename"
	OpRemove  FaultOp = "remove"
	OpStat    FaultOp = "stat"
	OpWrite   FaultOp = "write"
	OpSync    FaultOp = "sync" // File.Sync
	OpSyncDir FaultOp = "syncdir"
	OpChtimes FaultOp = "chtimes"
)

// FaultRule arms one failure. A zero Op or Path matches every
// operation or path; Path matches by substring so callers can target
// "accept.wal" or ".put-" without knowing temp-file suffixes.
type FaultRule struct {
	Op   FaultOp
	Path string
	// Err is returned from the matched operation.
	Err error
	// Count is how many times the rule fires before disarming;
	// Count < 0 fires forever (a full disk stays full).
	Count int
	// Short, for OpWrite rules, persists the first Short bytes of the
	// buffer before failing — a torn write. Short = 0 fails cleanly.
	Short int
}

// FaultFS wraps an FS with a mutable rule table.
type FaultFS struct {
	inner FS

	mu    sync.Mutex
	rules []*FaultRule
	trips int
}

// NewFaultFS wraps inner (nil = the real filesystem).
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OSFS{}
	}
	return &FaultFS{inner: inner}
}

// Fail arms a rule. Safe to call while the FS is in use.
func (f *FaultFS) Fail(r FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &r)
}

// Clear disarms every rule.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Trips reports how many operations have been failed so far — tests
// assert the fault actually landed instead of passing vacuously.
func (f *FaultFS) Trips() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.trips
}

// match consumes and returns the first armed rule matching (op, path).
func (f *FaultFS) match(op FaultOp, path string) *FaultRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if r.Count == 0 || (r.Op != "" && r.Op != op) || (r.Path != "" && !strings.Contains(path, r.Path)) {
			continue
		}
		if r.Count > 0 {
			r.Count--
		}
		f.trips++
		return r
	}
	return nil
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if r := f.match(OpMkdir, path); r != nil {
		return r.Err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if r := f.match(OpOpen, name); r != nil {
		return nil, r.Err
	}
	return f.wrap(f.inner.OpenFile(name, flag, perm))
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if r := f.match(OpCreate, dir); r != nil {
		return nil, r.Err
	}
	return f.wrap(f.inner.CreateTemp(dir, pattern))
}

func (f *FaultFS) wrap(file File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if r := f.match(OpRead, name); r != nil {
		return nil, r.Err
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if r := f.match(OpReadDir, name); r != nil {
		return nil, r.Err
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if r := f.match(OpRename, newpath); r != nil {
		return r.Err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if r := f.match(OpRemove, name); r != nil {
		return r.Err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if r := f.match(OpStat, name); r != nil {
		return nil, r.Err
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) SyncDir(name string) error {
	if r := f.match(OpSyncDir, name); r != nil {
		return r.Err
	}
	return f.inner.SyncDir(name)
}

func (f *FaultFS) Chtimes(name string, atime, mtime time.Time) error {
	if r := f.match(OpChtimes, name); r != nil {
		return r.Err
	}
	return f.inner.Chtimes(name, atime, mtime)
}

// faultFile applies write and sync rules to one open file.
type faultFile struct {
	File
	fs *FaultFS
}

// Write applies torn-write rules: a rule with Short > 0 persists that
// prefix through the real file before failing, leaving the partial
// bytes on disk exactly as an interrupted kernel write would.
func (ff *faultFile) Write(p []byte) (int, error) {
	if r := ff.fs.match(OpWrite, ff.Name()); r != nil {
		n := 0
		if r.Short > 0 {
			short := r.Short
			if short > len(p) {
				short = len(p)
			}
			n, _ = ff.File.Write(p[:short])
		}
		return n, r.Err
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	if r := ff.fs.match(OpSync, ff.Name()); r != nil {
		return r.Err
	}
	return ff.File.Sync()
}
