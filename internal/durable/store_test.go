package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// TestStoreCachedScan pins the scan cache: an unchanged store answers
// from cache (no filesystem work), and any mutation invalidates it
// immediately. The fault seam proves both halves deterministically: a
// ReadDir fault injected behind a warm cache stays invisible until a
// Put dirties the store, at which point the next CachedScan really
// scans and surfaces the error.
func TestStoreCachedScan(t *testing.T) {
	ffs := NewFaultFS(nil)
	s, err := NewStoreFS(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", json.RawMessage(`{"Events":1}`)); err != nil {
		t.Fatal(err)
	}
	n, bytes1, err := s.CachedScan()
	if err != nil || n != 1 || bytes1 <= 0 {
		t.Fatalf("CachedScan = %d, %d, %v", n, bytes1, err)
	}
	// Warm cache: a ReadDir fault is not even reached.
	ffs.Fail(FaultRule{Op: OpReadDir, Err: errors.New("injected EIO"), Count: -1})
	if n, _, err := s.CachedScan(); err != nil || n != 1 {
		t.Fatalf("warm CachedScan hit the filesystem: %d, %v", n, err)
	}
	// A mutation invalidates: the next call scans for real and surfaces
	// the error instead of serving stale figures.
	if err := s.Put("b", json.RawMessage(`{"Events":2}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.CachedScan(); err == nil {
		t.Fatal("CachedScan served a stale result across a mutation")
	}
	// Errors are never cached: clearing the fault heals the next call.
	ffs.Clear()
	if n, _, err := s.CachedScan(); err != nil || n != 2 {
		t.Fatalf("CachedScan after fault cleared = %d, %v", n, err)
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
	if err := os.WriteFile(filepath.Join(dir, ".put-12345"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
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

// TestStoreAtomicWriteLeavesNoTemp pins that Put cleans its temp files.
func TestStoreAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put("k", json.RawMessage(`{"Events":1}`)); err != nil {
			t.Fatal(err)
		}
	}
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

// TestStorePutFaults drives Put through injected write/sync/rename
// failures (the ENOSPC family): every failure surfaces as an error, no
// torn entry becomes visible at the final address, and the store keeps
// working once the fault clears.
func TestStorePutFaults(t *testing.T) {
	for _, op := range []FaultOp{OpCreate, OpWrite, OpSync, OpRename} {
		t.Run(string(op), func(t *testing.T) {
			ffs := NewFaultFS(nil)
			s, err := NewStoreFS(t.TempDir(), ffs)
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
			// The failed Put left no visible entry...
			if _, ok, err := s.Get("k"); ok || err != nil {
				t.Fatalf("Get after failed Put: ok=%v err=%v", ok, err)
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
