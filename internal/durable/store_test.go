package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func mustLen(t *testing.T, s *Store) int {
	t.Helper()
	n, _, err := s.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return n
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	key := "mixG/8GB|star|small|FP|full-power|0|0|20000|5000|false|false|0"
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("empty store Get = ok=%v err=%v", ok, err)
	}
	want := json.RawMessage(`{"Events":42,"Throughput":1.5}`)
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stored bytes diverged: %s vs %s", got, want)
	}
	if n := mustLen(t, s); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	// Re-put is idempotent.
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if n := mustLen(t, s); n != 1 {
		t.Fatalf("Len after re-put = %d, want 1", n)
	}
}

// TestStoreLenSurfacesScanError pins the fixed contract: an unreadable
// store directory is an error, not a phantom empty store.
func TestStoreLenSurfacesScanError(t *testing.T) {
	ffs := NewFaultFS(nil)
	s, err := NewStoreFS(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Fail(FaultRule{Op: OpReadDir, Err: errors.New("injected EIO"), Count: -1})
	if _, _, err := s.Scan(); err == nil {
		t.Fatal("Scan swallowed the ReadDir error")
	}
}

// TestStoreKeyMismatchQuarantines pins the verification contract: a file
// whose embedded key does not match the requested key is quarantined and
// reported as a miss wrapped in ErrCorrupt — never served.
func TestStoreKeyMismatchQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	// Graft key-a's file onto key-b's address.
	data, err := os.ReadFile(s.path("key-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path("key-b"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := s.Get("key-b")
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched entry: ok=%v err=%v, want miss + ErrCorrupt", ok, err)
	}
	if _, err := os.Stat(s.path("key-b")); !os.IsNotExist(err) {
		t.Fatal("mismatched entry still at its address after Get")
	}
	qpath := filepath.Join(dir, QuarantineDir, filepath.Base(s.path("key-b")))
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("mismatched entry not quarantined: %v", err)
	}
	if s.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", s.Quarantined())
	}
	// The slot is reusable: a fresh Put repairs the address.
	if err := s.Put("key-b", json.RawMessage(`{"fresh":true}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("key-b"); err != nil || !ok {
		t.Fatalf("Get after repair: ok=%v err=%v", ok, err)
	}
}

// TestStoreCorruptEntryQuarantines pins that a torn or bit-rotted file
// is quarantined and reported as a miss, not served and not a hard error.
func TestStoreCorruptEntryQuarantines(t *testing.T) {
	for name, mutate := range map[string]func(data []byte) []byte{
		"torn-envelope": func(data []byte) []byte { return data[:len(data)/2] },
		"payload-flip": func(data []byte) []byte {
			// Flip a byte inside the result payload without breaking JSON:
			// 42 → 43 defeats the checksum, not the decoder.
			return bytes.Replace(data, []byte(`42`), []byte(`43`), 1)
		},
		"no-sum": func(data []byte) []byte {
			// Key and payload intact, no checksum: nothing to verify the
			// payload against, so it fails like any other entry.
			return []byte(`{"key":"k","result":{"Events":42}}`)
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("k", json.RawMessage(`{"Events":42}`)); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(s.path("k"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.path("k"), mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, ok, err := s.Get("k")
			if ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupt entry: ok=%v err=%v, want miss + ErrCorrupt", ok, err)
			}
			if s.Quarantined() != 1 {
				t.Fatalf("Quarantined = %d, want 1", s.Quarantined())
			}
		})
	}
}

// TestStorePutNonCompactPayload pins checksum/storage consistency:
// marshaling the envelope compacts the payload, so Put must checksum
// the compacted form. A spaced-but-valid JSON payload (e.g. one another
// tool wrote) must round-trip as a hit, not produce an entry that
// quarantines itself on the first Get.
func TestStorePutNonCompactPayload(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", json.RawMessage(`{ "Events": 42 ,  "X": [1, 2] }`)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("k")
	if err != nil || !ok {
		t.Fatalf("Get after spaced Put: ok=%v err=%v (entry failed its own checksum)", ok, err)
	}
	if !bytes.Equal(got, []byte(`{"Events":42,"X":[1,2]}`)) {
		t.Fatalf("stored payload = %s", got)
	}
	if s.Quarantined() != 0 {
		t.Fatalf("self-inconsistent entry quarantined (%d)", s.Quarantined())
	}
	// Invalid JSON is rejected up front, never stored.
	if err := s.Put("bad", json.RawMessage(`{"torn`)); err == nil {
		t.Fatal("Put accepted invalid JSON")
	}
}

// TestStoreFsck pins the startup pass: clean entries kept, corrupt and
// misfiled ones quarantined, stale .put-* temps swept, foreign files
// (accept journal) untouched.
func TestStoreFsck(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("good", json.RawMessage(`{"Events":1}`)); err != nil {
		t.Fatal(err)
	}
	// A misfiled entry: valid envelope filed under the wrong name.
	data, _ := os.ReadFile(s.path("good"))
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt entry and a crash-leaked temp file.
	if err := os.WriteFile(s.path("bad"), []byte(`{"key":"bad","resu`), 0o644); err != nil {
		t.Fatal(err)
	}
	leaked := filepath.Join(dir, ".put-12345")
	if err := os.WriteFile(leaked, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	ageTemp(t, leaked)
	// A foreign non-.json file sharing the directory must survive.
	if err := os.WriteFile(filepath.Join(dir, "accept.wal"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 1 || rep.Quarantined != 2 || rep.TempsRemoved != 1 {
		t.Fatalf("fsck report %+v, want 1 entry / 2 quarantined / 1 temp", rep)
	}
	if rep.Bytes <= 0 {
		t.Fatalf("fsck bytes = %d", rep.Bytes)
	}
	if _, ok, err := s.Get("good"); err != nil || !ok {
		t.Fatalf("clean entry lost by fsck: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "accept.wal")); err != nil {
		t.Fatal("fsck touched a foreign file")
	}
	qents, err := os.ReadDir(filepath.Join(dir, QuarantineDir))
	if err != nil || len(qents) != 2 {
		t.Fatalf("quarantine holds %d files (err %v), want 2", len(qents), err)
	}
	// Idempotent: a second pass finds nothing to do.
	rep2, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Entries != 1 || rep2.Quarantined != 0 || rep2.TempsRemoved != 0 {
		t.Fatalf("second fsck not idempotent: %+v", rep2)
	}
}

// ageTemp backdates a temp file past staleTempAge, as a crash long ago
// would have left it.
func ageTemp(t *testing.T, path string) {
	t.Helper()
	old := time.Now().Add(-staleTempAge - time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

// TestStoreFsckSparesFreshTemp pins that Fsck leaves a temp another
// process is still writing, so that writer's rename still lands, and
// removes the same temp once it has aged past staleTempAge.
func TestStoreFsckSparesFreshTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The bytes a concurrent Put of "k" writes, staged by a second store.
	other, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Put("k", json.RawMessage(`{"Events":1}`)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(other.path("k"))
	if err != nil {
		t.Fatal(err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write(data); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TempsRemoved != 0 {
		t.Fatalf("fsck removed a temp still being written: %+v", rep)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp.Name(), s.path("k")); err != nil {
		t.Fatalf("writer's rename after fsck: %v", err)
	}
	if got, ok, err := s.Get("k"); err != nil || !ok || string(got) != `{"Events":1}` {
		t.Fatalf("Get after the writer's rename = %s, %v, %v", got, ok, err)
	}

	stale := filepath.Join(dir, ".put-stale")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	ageTemp(t, stale)
	if rep, err := s.Fsck(); err != nil || rep.TempsRemoved != 1 || rep.Entries != 1 {
		t.Fatalf("fsck of an aged temp = %+v, %v; want it removed and 1 entry kept", rep, err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("aged temp survived fsck: %v", err)
	}
}

// TestStoreGC covers the eviction policies and their edge cases: empty
// store, all entries pinned, and a byte cap smaller than one entry.
func TestStoreGC(t *testing.T) {
	newStore := func(t *testing.T) *Store {
		s, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	put := func(t *testing.T, s *Store, key string) {
		t.Helper()
		if err := s.Put(key, json.RawMessage(fmt.Sprintf(`{"k":%q}`, key))); err != nil {
			t.Fatal(err)
		}
	}
	age := func(t *testing.T, s *Store, key string, d time.Duration) {
		t.Helper()
		old := time.Now().Add(-d)
		if err := os.Chtimes(s.path(key), old, old); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("disabled-is-noop", func(t *testing.T) {
		s := newStore(t)
		put(t, s, "a")
		n, err := s.GC(GCConfig{})
		if err != nil || n != 0 {
			t.Fatalf("GC = %d, %v", n, err)
		}
	})
	t.Run("empty-store", func(t *testing.T) {
		s := newStore(t)
		n, err := s.GC(GCConfig{MaxBytes: 1, MaxAge: time.Nanosecond})
		if err != nil || n != 0 {
			t.Fatalf("GC on empty store = %d, %v", n, err)
		}
	})
	t.Run("age-evicts-stale-only", func(t *testing.T) {
		s := newStore(t)
		put(t, s, "old")
		put(t, s, "fresh")
		age(t, s, "old", time.Hour)
		n, err := s.GC(GCConfig{MaxAge: time.Minute})
		if err != nil || n != 1 {
			t.Fatalf("GC = %d, %v, want 1 eviction", n, err)
		}
		if _, ok, _ := s.Get("fresh"); !ok {
			t.Fatal("fresh entry evicted")
		}
		if _, ok, _ := s.Get("old"); ok {
			t.Fatal("stale entry survived")
		}
		if s.Evictions() != 1 {
			t.Fatalf("Evictions = %d", s.Evictions())
		}
	})
	t.Run("get-refreshes-last-hit", func(t *testing.T) {
		s := newStore(t)
		put(t, s, "touched")
		age(t, s, "touched", time.Hour)
		if _, ok, err := s.Get("touched"); !ok || err != nil {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
		n, err := s.GC(GCConfig{MaxAge: time.Minute})
		if err != nil || n != 0 {
			t.Fatalf("GC evicted a just-hit entry: %d, %v", n, err)
		}
	})
	t.Run("bytes-evicts-lru-first", func(t *testing.T) {
		s := newStore(t)
		put(t, s, "oldest")
		put(t, s, "middle")
		put(t, s, "newest")
		age(t, s, "oldest", 3*time.Hour)
		age(t, s, "middle", 2*time.Hour)
		_, total, err := s.Scan()
		if err != nil {
			t.Fatal(err)
		}
		// Cap just under the total: exactly one eviction, the LRU entry.
		if _, err := s.GC(GCConfig{MaxBytes: total - 1}); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := s.Get("oldest"); ok {
			t.Fatal("LRU entry survived a byte-cap GC")
		}
		for _, k := range []string{"middle", "newest"} {
			if _, ok, _ := s.Get(k); !ok {
				t.Fatalf("entry %s evicted out of LRU order", k)
			}
		}
	})
	t.Run("pinned-never-evicted", func(t *testing.T) {
		s := newStore(t)
		put(t, s, "pinned")
		age(t, s, "pinned", time.Hour)
		n, err := s.GC(GCConfig{
			MaxBytes: 1, MaxAge: time.Minute,
			Pinned: map[string]bool{"pinned": true},
		})
		if err != nil || n != 0 {
			t.Fatalf("GC evicted a pinned entry: %d, %v", n, err)
		}
		if _, ok, _ := s.Get("pinned"); !ok {
			t.Fatal("pinned entry gone")
		}
	})
	t.Run("cap-smaller-than-one-entry", func(t *testing.T) {
		s := newStore(t)
		put(t, s, "a")
		put(t, s, "b")
		n, err := s.GC(GCConfig{MaxBytes: 1})
		if err != nil || n != 2 {
			t.Fatalf("GC = %d, %v, want both unpinned entries evicted", n, err)
		}
		if remaining := mustLen(t, s); remaining != 0 {
			t.Fatalf("store holds %d entries after cap-1 GC", remaining)
		}
	})
}

// TestStoreAtomicWriteLeavesNoTemp pins that Put cleans its temp files
// and that a successful Put removes nothing: the rename consumed the
// temp, so a Remove would only waste an unlink and an rmdir.
func TestStoreAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s, err := NewStoreFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Fail(FaultRule{Op: OpRemove, Err: syscall.EIO, Count: -1})
	for i := 0; i < 5; i++ {
		if err := s.Put("k", json.RawMessage(`{"Events":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if ffs.Trips() != 0 {
		t.Fatalf("successful Puts called Remove %d time(s)", ffs.Trips())
	}
	assertNoTemp(t, dir)
}

// assertNoTemp fails if dir holds anything but entries.
func assertNoTemp(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".json" {
			t.Fatalf("leftover non-entry file %s", e.Name())
		}
	}
}

// TestStorePutFaults drives Put through injected create/write/sync/
// rename/directory-fsync failures (the ENOSPC family): every failure
// surfaces as an error and leaves no temp file behind, a failure before
// the rename leaves no entry at the final address, and the store keeps
// working once the fault clears. A failed directory fsync comes after
// the rename, so its entry may be visible; the error says only that it
// is not known to survive a power cut.
func TestStorePutFaults(t *testing.T) {
	for _, op := range []FaultOp{OpCreate, OpWrite, OpSync, OpRename, OpSyncDir} {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			ffs := NewFaultFS(nil)
			s, err := NewStoreFS(dir, ffs)
			if err != nil {
				t.Fatal(err)
			}
			ffs.Fail(FaultRule{Op: op, Err: syscall.ENOSPC, Count: 1})
			if err := s.Put("k", json.RawMessage(`{"Events":7}`)); err == nil {
				t.Fatalf("Put survived injected %s failure", op)
			}
			if ffs.Trips() == 0 {
				t.Fatal("fault never fired; test is vacuous")
			}
			assertNoTemp(t, dir)
			if op != OpSyncDir {
				// The failed Put left no visible entry...
				if _, ok, err := s.Get("k"); ok || err != nil {
					t.Fatalf("Get after failed Put: ok=%v err=%v", ok, err)
				}
			}
			// ...and the store recovers the moment the disk does.
			if err := s.Put("k", json.RawMessage(`{"Events":7}`)); err != nil {
				t.Fatalf("Put after fault cleared: %v", err)
			}
			if _, ok, err := s.Get("k"); !ok || err != nil {
				t.Fatalf("Get after recovery: ok=%v err=%v", ok, err)
			}
		})
	}
}

// TestStoreDelete pins Delete: the entry is gone, a missing key is not
// an error, and a failing unlink is.
func TestStoreDelete(t *testing.T) {
	ffs := NewFaultFS(nil)
	s, err := NewStoreFS(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("k"); ok || err != nil {
		t.Fatalf("Get after Delete: ok=%v err=%v", ok, err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatalf("Delete of a missing key: %v", err)
	}
	if err := s.Put("k", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	ffs.Fail(FaultRule{Op: OpRemove, Err: syscall.EIO, Count: 1})
	if err := s.Delete("k"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Delete under a failing unlink returned %v, want EIO", err)
	}
}

// TestStoreWalk pins that Walk hands over exactly the entries that
// verify, with their keys, and quarantines the rest as Fsck does.
func TestStoreWalk(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": `{"n":1}`, "b": `{"n":2}`}
	for k, v := range want {
		if err := s.Put(k, json.RawMessage(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(s.path("c"), []byte(`{"key":"c","sum":"00","result":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	rep, err := s.Walk(func(key string, result json.RawMessage) { got[key] = string(result) })
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || rep.Entries != 2 || rep.Quarantined != 1 {
		t.Fatalf("Walk visited %v with report %+v, want %v and one quarantined", got, rep, want)
	}
	if s.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", s.Quarantined())
	}
}

// TestLockConflict pins the single-writer lock: a second Lock of a held
// path fails fast, naming it, and succeeds once the holder closes.
func TestLockConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lock")
	l, err := Lock(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lock(path, nil); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("second Lock of a held path returned %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Lock(path, nil)
	if err != nil {
		t.Fatalf("Lock after the holder closed: %v", err)
	}
	l.Close()
	missing := filepath.Join(path+".d", "lock")
	if _, err := Lock(missing, nil); err == nil {
		t.Fatal("Lock in a missing directory succeeded")
	}
	if err := (OSFS{}).SyncDir(filepath.Dir(missing)); err == nil {
		t.Fatal("SyncDir of a missing directory succeeded")
	}
}
