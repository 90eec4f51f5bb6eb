package durable

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// rec is the record type the log tests append and replay.
type rec struct {
	K string `json:"k"`
}

// decodeRec accepts exactly the lines that unmarshal to a rec with a
// non-empty key, collecting them into *out.
func decodeRec(out *[]string) func([]byte) bool {
	return func(line []byte) bool {
		var r rec
		if json.Unmarshal(line, &r) != nil || r.K == "" {
			return false
		}
		*out = append(*out, r.K)
		return true
	}
}

func openRecs(t *testing.T, path string, fsys FS) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := Open(path, fsys, decodeRec(&got))
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestLogTornTail pins the crash model: an unterminated final line, or
// an undecodable one, ends the replay and is truncated away together
// with everything after it.
func TestLogTornTail(t *testing.T) {
	for name, tc := range map[string]struct{ file, keep string }{
		"torn":    {`{"k":"a"}` + "\n" + `{"k":"b`, `{"k":"a"}` + "\n"},
		"corrupt": {`{"k":"a"}` + "\n" + `{"x":1}` + "\n" + `{"k":"c"}` + "\n", `{"k":"a"}` + "\n"},
		"blank":   {"\n" + `{"k":"a"}` + "\n", ""},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			l, _ := openRecs(t, path, nil)
			if err := l.Append(rec{K: "z"}); err != nil {
				t.Fatal(err)
			}
			l.Close()
			if got, want := readFile(t, path), tc.keep+`{"k":"z"}`+"\n"; got != want {
				t.Fatalf("file = %q, want %q", got, want)
			}
		})
	}
}

// TestLogTornWriteThenAppend is the append-failure regression: a torn
// write leaves a fragment, and the next append — which succeeds and is
// therefore acknowledged — must not be glued to it, or the next open
// truncates an acknowledged record away.
func TestLogTornWriteThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	ffs := NewFaultFS(nil)
	l, _ := openRecs(t, path, ffs)
	if err := l.Append(rec{K: "a"}); err != nil {
		t.Fatal(err)
	}
	ffs.Fail(FaultRule{Op: OpWrite, Err: syscall.ENOSPC, Count: 1, Short: 9})
	if err := l.Append(rec{K: "torn"}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn append returned %v, want ENOSPC", err)
	}
	if err := l.Append(rec{K: "b"}); err != nil {
		t.Fatalf("append after a repaired torn write: %v", err)
	}
	l.Close()
	if got, want := readFile(t, path), `{"k":"a"}`+"\n"+`{"k":"b"}`+"\n"; got != want {
		t.Fatalf("file = %q, want %q", got, want)
	}
	l2, got := openRecs(t, path, nil)
	l2.Close()
	if want := []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// TestLogFailedSyncCutsRecord: a record whose fsync failed was never
// acknowledged, so the repair cuts it off and the log stays usable.
func TestLogFailedSyncCutsRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	ffs := NewFaultFS(nil)
	l, _ := openRecs(t, path, ffs)
	ffs.Fail(FaultRule{Op: OpSync, Err: syscall.EIO, Count: 1})
	if err := l.Append(rec{K: "unsynced"}); err == nil {
		t.Fatal("append with a failed fsync reported success")
	}
	if err := l.Append(rec{K: "b"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got, want := readFile(t, path), `{"k":"b"}`+"\n"; got != want {
		t.Fatalf("file = %q, want %q", got, want)
	}
}

// TestLogFailedRepairIsSticky: when the repair after a failed append
// fails too — its truncate or its fsync — the file may end in a
// fragment the next record would be glued to, so every later append
// must fail with ErrBroken even once the disk recovers.
func TestLogFailedRepairIsSticky(t *testing.T) {
	for name, rules := range map[string][]FaultRule{
		"truncate": {
			{Op: OpWrite, Err: syscall.ENOSPC, Count: 1, Short: 5},
			{Op: OpTrunc, Err: syscall.EIO, Count: 1},
		},
		"sync": {{Op: OpSync, Err: syscall.EIO, Count: 2}},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			ffs := NewFaultFS(nil)
			l, _ := openRecs(t, path, ffs)
			if err := l.Append(rec{K: "a"}); err != nil {
				t.Fatal(err)
			}
			for _, r := range rules {
				ffs.Fail(r)
			}
			if err := l.Append(rec{K: "failed"}); err == nil || errors.Is(err, ErrBroken) {
				t.Fatalf("failing append returned %v, want its own error", err)
			}
			ffs.Clear()
			err := l.Append(rec{K: "after"})
			if !errors.Is(err, ErrBroken) || !strings.Contains(err.Error(), path) {
				t.Fatalf("append after a failed repair returned %v, want ErrBroken naming the path", err)
			}
			l.Close()
			l2, got := openRecs(t, path, nil)
			l2.Close()
			if want := []string{"a"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed %v, want %v", got, want)
			}
		})
	}
}

// TestLogFlockConflict pins the single-writer lock: a second open of a
// live log fails fast, and Close releases the path at once.
func TestLogFlockConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _ := openRecs(t, path, nil)
	if _, err := Open(path, nil, decodeRec(new([]string))); err == nil {
		t.Fatal("second open of a locked log succeeded")
	} else if !strings.Contains(err.Error(), "already locked") {
		t.Fatalf("conflict error should name the lock: %v", err)
	}
	l.Close()
	l2, _ := openRecs(t, path, nil)
	l2.Close()
}

// TestLogReset: a reset log is empty on disk and appends from offset 0.
func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _ := openRecs(t, path, nil)
	for _, k := range []string{"a", "b"} {
		if err := l.Append(rec{K: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{K: "c"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got, want := readFile(t, path), `{"k":"c"}`+"\n"; got != want {
		t.Fatalf("file = %q, want %q", got, want)
	}
}

// TestLogOpenErrors: open failures and unmarshalable records surface as
// errors, never as a half-open log or a written line.
func TestLogOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing", "log.jsonl"), nil, decodeRec(new([]string))); err == nil {
		t.Fatal("open under a missing directory succeeded")
	}
	ffs := NewFaultFS(nil)
	path := filepath.Join(dir, "log.jsonl")
	for _, op := range []FaultOp{OpRead, OpTrunc} {
		ffs.Fail(FaultRule{Op: op, Err: syscall.EIO, Count: 1})
		if _, err := Open(path, ffs, decodeRec(new([]string))); !errors.Is(err, syscall.EIO) {
			t.Fatalf("open with a failing %s returned %v, want EIO", op, err)
		}
	}
	l, _ := openRecs(t, path, nil)
	defer l.Close()
	if err := l.Append(func() {}); err == nil {
		t.Fatal("appending an unmarshalable record succeeded")
	}
	if got := readFile(t, path); got != "" {
		t.Fatalf("failed marshal wrote %q", got)
	}
}
