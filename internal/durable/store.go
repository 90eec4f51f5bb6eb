// Content-addressed result store, the one result cache of every
// process — the sweep pool, memnetsim's batches and memnetd — and the
// one durable format: memnetd's accept journal is a Store of its own
// directory, one entry per unfinished job keyed by job id. Results are
// keyed by the canonical exp.Spec.Key() and stored one file per cell
// under sha256(key), so a duplicate cell — same spec, any order, any
// process — is a cache hit served without simulation, byte-identical to
// the fresh run because the store holds the exact JSON bytes the fresh
// run produced.
//
// Writes are atomic (tmp file + fsync + rename) so a process killed
// mid-write leaves either the old entry or the new one, never a torn
// file, and several processes may share one directory; a directory
// fsync after the rename makes a returned Put survive a power cut.
// Every entry embeds its spec key and a sha256 of its payload; Get
// re-verifies both, and an entry that fails — bit-rot, a torn
// envelope, a hand-edited payload, a hash collision — is moved to the
// quarantine/ subdirectory and reported as a cache miss, never served
// and never a 500; an entry with no Sum fails like any other. Fsck
// runs the same verification over the whole store at startup and
// sweeps the .put-* temp files a crash mid-Put leaked, once they are
// older than any Put could be; GC bounds the store by total bytes and by
// entry age (last hit, tracked via mtime), never evicting entries pinned
// by in-flight jobs.
package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// QuarantineDir is the subdirectory of the store root that corrupt or
// mismatched entries are moved into. Quarantined files are kept, not
// deleted — they are the forensic record of a disk or software fault.
const QuarantineDir = "quarantine"

// ErrCorrupt wraps every verification failure Get detects. The failing
// entry has already been quarantined when Get returns it; callers treat
// the read as a cache miss.
var ErrCorrupt = errors.New("store entry corrupt")

// ScanCacheTTL bounds how stale CachedScan's entry/byte figures may be
// when nothing has mutated the store. Mutations (Put, GC, quarantine,
// Fsck sweeps) invalidate the cache immediately, so the TTL only covers
// changes made behind the store's back.
const ScanCacheTTL = 500 * time.Millisecond

// staleTempAge is how long a .put-* temp file must have gone unmodified
// before Fsck removes it. A Put holds its temp for one write, fsync and
// rename, far less than this, so an older temp was leaked by a crash and
// a younger one may still be written by another process.
const staleTempAge = 10 * time.Minute

// Store is a directory of content-addressed simulation results.
type Store struct {
	dir string
	fs  FS

	quarantined atomic.Uint64 // entries moved to quarantine/ (Get + Fsck)
	evictions   atomic.Uint64 // entries removed by GC

	// Scan cache: metrics scrapes and /statusz polls hit CachedScan,
	// which answers from the last successful Scan while gen is unchanged
	// and the TTL holds, so frequent polling costs O(1) filesystem work
	// instead of a ReadDir + per-entry Stat per request.
	gen         atomic.Uint64 // bumped by every mutating store operation
	scanMu      sync.Mutex
	scanValid   bool
	scanGen     uint64
	scanAt      time.Time
	scanEntries int
	scanBytes   int64
}

// markDirty invalidates the scan cache; every operation that changes
// the directory's contents calls it.
func (s *Store) markDirty() { s.gen.Add(1) }

// storeEntry is the on-disk envelope: the key rides along so Get can
// verify the file really belongs to the requested spec, and Sum is the
// hex sha256 of Result so bit-rot inside the payload is detected too.
type storeEntry struct {
	Key    string          `json:"key"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// NewStore opens (creating if needed) a store rooted at dir on the real
// filesystem.
func NewStore(dir string) (*Store, error) { return NewStoreFS(dir, nil) }

// NewStoreFS opens a store on an injectable filesystem (nil = real).
func NewStoreFS(dir string, fsys FS) (*Store, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	return &Store{dir: dir, fs: fsys}, nil
}

// Quarantined reports how many entries this store has quarantined.
func (s *Store) Quarantined() uint64 { return s.quarantined.Load() }

// Evictions reports how many entries GC has removed.
func (s *Store) Evictions() uint64 { return s.evictions.Load() }

// path maps a spec key to its file. Keys are free-form strings (they
// embed workload names and '|' separators), so the filename is the hex
// sha256 of the key, never the key itself.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, s.fileName(key))
}

// fileName is the basename path uses; GC uses it to map pinned spec
// keys onto directory entries without re-deriving the digest scheme.
func (s *Store) fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
}

// payloadSum is the checksum stored in the Sum field.
func payloadSum(result json.RawMessage) string {
	sum := sha256.Sum256(result)
	return hex.EncodeToString(sum[:])
}

// verifyEntry parses and verifies one on-disk entry against the key it
// is filed under. wantKey == "" skips the key comparison (Fsck trusts
// the embedded key and checks the filename instead).
func verifyEntry(data []byte, wantKey string) (e storeEntry, err error) {
	if err := json.Unmarshal(data, &e); err != nil {
		return e, fmt.Errorf("undecodable envelope: %w", err)
	}
	if wantKey != "" && e.Key != wantKey {
		return e, fmt.Errorf("key mismatch: have %q, want %q", e.Key, wantKey)
	}
	if e.Sum == "" {
		return e, errors.New("no payload checksum")
	}
	if got := payloadSum(e.Result); got != e.Sum {
		return e, fmt.Errorf("payload checksum mismatch: have %s, want %s", got, e.Sum)
	}
	return e, nil
}

// Quarantine moves the file at path into the quarantine subdirectory
// (same basename; a repeat offender overwrites its previous capture)
// and counts it. Get and Fsck treat the move as best-effort: if it
// fails the entry is still a miss, and a later Put simply replaces the
// bad file in place.
func (s *Store) Quarantine(path string) error {
	qdir := filepath.Join(s.dir, QuarantineDir)
	if err := s.fs.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	if err := s.fs.Rename(path, filepath.Join(qdir, filepath.Base(path))); err != nil {
		return err
	}
	s.quarantined.Add(1)
	s.markDirty()
	return nil
}

// Get returns the stored result bytes for key, or ok=false when the key
// has never been stored. An entry that fails verification is moved to
// quarantine/ and reported as a miss wrapped in ErrCorrupt — the caller
// re-simulates; corrupt bytes are never served. A hit refreshes the
// file's mtime, which is the last-hit clock GC's age policy reads.
func (s *Store) Get(key string) (json.RawMessage, bool, error) {
	p := s.path(key)
	data, err := s.fs.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store %s: get: %w", s.dir, err)
	}
	e, verr := verifyEntry(data, key)
	if verr != nil {
		s.Quarantine(p)
		return nil, false, fmt.Errorf("%w: %s: %v", ErrCorrupt, key, verr)
	}
	now := time.Now()
	s.fs.Chtimes(p, now, now) // best-effort last-hit bump
	return e.Result, true, nil
}

// Put stores the result bytes for key atomically: tmp file in the same
// directory, fsync, rename, directory fsync, so a nil return means the
// entry survives a power cut. A concurrent Put of the same key is safe —
// last rename wins and both carry identical content. A failure names
// the store's directory; a failure before the rename removes the temp.
func (s *Store) Put(key string, result json.RawMessage) error {
	if err := s.put(key, result); err != nil {
		return fmt.Errorf("store %s: put: %w", s.dir, err)
	}
	return nil
}

func (s *Store) put(key string, result json.RawMessage) error {
	// Checksum the bytes as they will be stored: marshaling the envelope
	// compacts the RawMessage, so a non-compact payload summed verbatim
	// would produce an entry that fails its own verification on the
	// first Get. Compacting is a no-op for the daemon's own (already
	// compact) results, so stored bytes stay byte-identical to the
	// fresh delivery.
	var compact bytes.Buffer
	if err := json.Compact(&compact, result); err != nil {
		return fmt.Errorf("payload not valid JSON: %w", err)
	}
	result = json.RawMessage(compact.Bytes())
	data, err := json.Marshal(storeEntry{Key: key, Sum: payloadSum(result), Result: result})
	if err != nil {
		return err
	}
	tmp, err := s.fs.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmp.Name(), s.path(key))
	}
	if err != nil {
		s.fs.Remove(tmp.Name())
		return err
	}
	s.markDirty()
	return s.fs.SyncDir(s.dir)
}

// Delete removes key's entry; a key with no entry is not an error. The
// removal is not fsynced, so after a power cut the entry may be back.
func (s *Store) Delete(key string) error {
	if err := s.fs.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store %s: delete: %w", s.dir, err)
	}
	s.markDirty()
	return nil
}

// Scan walks the store and reports entry count and total bytes. Scan
// errors surface — an unreadable store must not masquerade as empty.
func (s *Store) Scan() (entries int, bytes int64, err error) {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("store scan: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			return 0, 0, fmt.Errorf("store scan: %w", ierr)
		}
		entries++
		bytes += info.Size()
	}
	return entries, bytes, nil
}

// CachedScan is Scan behind a small cache: while no store operation has
// mutated the directory and the last successful scan is younger than
// ScanCacheTTL, it answers without touching the filesystem. Errors are
// never cached — a failed scan is retried on the next call — so an
// unreadable store surfaces within one TTL at worst, immediately after
// any mutation. This is the variant the metrics gauge and /statusz use;
// anything needing exact point-in-time figures calls Scan directly.
func (s *Store) CachedScan() (entries int, bytes int64, err error) {
	gen := s.gen.Load() // before the scan: a racing mutation forces a rescan
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	if s.scanValid && s.scanGen == gen && time.Since(s.scanAt) < ScanCacheTTL {
		return s.scanEntries, s.scanBytes, nil
	}
	entries, bytes, err = s.Scan()
	if err != nil {
		s.scanValid = false
		return 0, 0, err
	}
	s.scanValid = true
	s.scanGen = gen
	s.scanAt = time.Now()
	s.scanEntries, s.scanBytes = entries, bytes
	return entries, bytes, nil
}

// FsckReport summarizes a startup verification pass.
type FsckReport struct {
	Entries      int   // entries that verified clean
	Bytes        int64 // their total size
	Quarantined  int   // entries moved to quarantine/ this pass
	TempsRemoved int   // .put-* files older than staleTempAge swept
}

// Fsck verifies every entry in the store — envelope decodes, filename
// matches the embedded key, payload checksum holds — moving failures to
// quarantine/, and removes the .put-* temp files a crash mid-Put leaked:
// those unmodified for staleTempAge. A younger temp may belong to a Put
// still running in a process sharing the directory, so it stays. Fsck is
// cheap enough to run at every daemon startup: one read per entry, no
// writes for clean files.
func (s *Store) Fsck() (FsckReport, error) { return s.Walk(nil) }

// Walk is Fsck that also hands each entry that verifies to visit (nil
// = none), in directory order.
func (s *Store) Walk(visit func(key string, result json.RawMessage)) (FsckReport, error) {
	var rep FsckReport
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return rep, fmt.Errorf("store fsck: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".put-") {
			p := filepath.Join(s.dir, name)
			info, err := s.fs.Stat(p)
			if err != nil || time.Since(info.ModTime()) < staleTempAge {
				continue
			}
			if err := s.fs.Remove(p); err == nil {
				rep.TempsRemoved++
				s.markDirty()
			}
			continue
		}
		if filepath.Ext(name) != ".json" {
			continue // the lock file, whatever else shares the dir
		}
		p := filepath.Join(s.dir, name)
		data, err := s.fs.ReadFile(p)
		if err != nil {
			return rep, fmt.Errorf("store fsck: %s: %w", name, err)
		}
		e, verr := verifyEntry(data, "")
		if verr == nil && s.fileName(e.Key) != name {
			verr = fmt.Errorf("filed under %s but key hashes to %s", name, s.fileName(e.Key))
		}
		if verr != nil {
			s.Quarantine(p)
			rep.Quarantined++
			continue
		}
		rep.Entries++
		rep.Bytes += int64(len(data))
		if visit != nil {
			visit(e.Key, e.Result)
		}
	}
	return rep, nil
}

// GCConfig bounds the store. Zero values disable the corresponding
// policy; a zero-valued config makes GC a no-op.
type GCConfig struct {
	// MaxBytes caps the total size of stored entries; least-recently-hit
	// entries are evicted until the store fits.
	MaxBytes int64
	// MaxAge evicts entries not hit (or written) for longer than this.
	MaxAge time.Duration
	// Pinned holds the spec keys of in-flight jobs; their entries are
	// never evicted, even when that leaves the store over MaxBytes.
	Pinned map[string]bool
}

// GC applies the age policy then the size policy, oldest-hit first.
// It returns how many entries it evicted.
func (s *Store) GC(cfg GCConfig) (int, error) {
	if cfg.MaxBytes <= 0 && cfg.MaxAge <= 0 {
		return 0, nil
	}
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("store gc: %w", err)
	}
	pinned := make(map[string]bool, len(cfg.Pinned))
	for key := range cfg.Pinned {
		pinned[s.fileName(key)] = true
	}
	type entry struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	for _, ent := range ents {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".json" {
			continue
		}
		info, ierr := ent.Info()
		if ierr != nil {
			return 0, fmt.Errorf("store gc: %w", ierr)
		}
		files = append(files, entry{ent.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })

	evicted := 0
	now := time.Now()
	evict := func(e entry) bool {
		if pinned[e.name] {
			return false
		}
		if err := s.fs.Remove(filepath.Join(s.dir, e.name)); err != nil {
			return false
		}
		total -= e.size
		evicted++
		s.evictions.Add(1)
		s.markDirty()
		return true
	}
	remaining := files[:0]
	for _, e := range files {
		if cfg.MaxAge > 0 && now.Sub(e.mtime) > cfg.MaxAge && evict(e) {
			continue
		}
		remaining = append(remaining, e)
	}
	if cfg.MaxBytes > 0 {
		for _, e := range remaining {
			if total <= cfg.MaxBytes {
				break
			}
			evict(e)
		}
	}
	return evicted, nil
}
