package durable

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestFaultFSRules drives every interceptable operation through one
// armed rule: the first call fails with the rule's error, the next one
// reaches the real filesystem, and Trips counts exactly the failures.
func TestFaultFSRules(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	sub := filepath.Join(dir, "sub")
	name := filepath.Join(dir, "f")
	var file File
	ops := []struct {
		op   FaultOp
		call func() error
	}{
		{OpMkdir, func() error { return ffs.MkdirAll(sub, 0o755) }},
		{OpOpen, func() (err error) { file, err = ffs.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644); return }},
		{OpWrite, func() error { _, err := file.Write([]byte("abc")); return err }},
		{OpSync, func() error { return file.Sync() }},
		{OpSyncDir, func() error { return ffs.SyncDir(dir) }},
		{OpRead, func() error { _, err := ffs.ReadFile(name); return err }},
		{OpCreate, func() error {
			tmp, err := ffs.CreateTemp(dir, ".tmp-*")
			if err == nil {
				tmp.Close()
			}
			return err
		}},
		{OpReadDir, func() error { _, err := ffs.ReadDir(dir); return err }},
		{OpStat, func() error { _, err := ffs.Stat(name); return err }},
		{OpChtimes, func() error { return ffs.Chtimes(name, time.Now(), time.Now()) }},
		{OpRename, func() error { return ffs.Rename(name, name+".2") }},
		{OpRemove, func() error { return ffs.Remove(name + ".2") }},
	}
	for i, o := range ops {
		ffs.Fail(FaultRule{Op: o.op, Err: syscall.EIO, Count: 1})
		if err := o.call(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("%s with an armed rule returned %v, want EIO", o.op, err)
		}
		if err := o.call(); err != nil {
			t.Fatalf("%s after the rule disarmed: %v", o.op, err)
		}
		if ffs.Trips() != i+1 {
			t.Fatalf("after %s: trips = %d, want %d", o.op, ffs.Trips(), i+1)
		}
	}
	if file.Name() != name || file.Fd() == 0 {
		t.Fatalf("file reports name %q fd %d", file.Name(), file.Fd())
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultFSMatching pins rule selection: Path matches by substring,
// Count < 0 fires until Clear, and a torn write persists its prefix.
func TestFaultFSMatching(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	ffs.Fail(FaultRule{Op: OpStat, Path: "other", Err: syscall.EIO, Count: -1})
	if _, err := ffs.Stat(dir); err != nil {
		t.Fatalf("rule for another path fired: %v", err)
	}
	ffs.Fail(FaultRule{Op: OpStat, Err: syscall.ENOSPC, Count: -1})
	for i := 0; i < 3; i++ {
		if _, err := ffs.Stat(dir); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("persistent rule, call %d: %v", i, err)
		}
	}
	ffs.Clear()
	if _, err := ffs.Stat(dir); err != nil {
		t.Fatalf("stat after Clear: %v", err)
	}

	name := filepath.Join(dir, "torn")
	f, err := ffs.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ffs.Fail(FaultRule{Op: OpWrite, Path: "torn", Err: syscall.ENOSPC, Count: 1, Short: 100})
	if n, err := f.Write([]byte("abcdef")); n != 6 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn write = %d, %v; want the whole short buffer persisted, then ENOSPC", n, err)
	}
	if data, _ := ffs.ReadFile(name); string(data) != "abcdef" {
		t.Fatalf("torn write persisted %q", data)
	}
}
