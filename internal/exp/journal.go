// Crash-safe sweep journaling. A Journal is a durable.Log of results,
// one JSON line each; a line is keyed on read by its own result's
// Spec.Key(), so a journal written under an older key format resumes
// under the current one. Every sweep appends through a frontier: a fresh
// cell is written as soon as every earlier cell has settled, so the file
// grows in sweep order at any job count. A killed run restarted with the
// same journal restores the completed cells and simulates only the
// remainder, so the combined output is byte-identical to an
// uninterrupted run (results are always committed and rendered in sweep
// order). Restored results do not keep their marshaled Spec — JSON does
// not round-trip every Spec field bit-exactly — the caller's canonical
// spec replaces it (see canonicalResult).
package exp

import (
	"encoding/json"
	"fmt"
	"sync"

	"memnet/internal/durable"
)

// journalEntry is one line of the file. Older lines also carry a "key"
// field, which decoding ignores; the "result" wrapper must stay, or such
// a line would decode as an empty Result and truncate the journal.
type journalEntry struct {
	Result Result `json:"result"`
}

// Journal appends completed sweep cells to a JSON-lines file.
type Journal struct {
	log *durable.Log
}

// OpenJournal opens (creating if needed) the journal at path on fsys
// (nil = the real filesystem) and returns it together with every result
// recoverable from previous runs, keyed by their Spec.Key(). A trailing
// partial or corrupt line — the signature of a crash mid-append — is
// truncated away so the file stays valid for appending.
func OpenJournal(path string, fsys durable.FS) (*Journal, map[string]Result, error) {
	loaded := map[string]Result{}
	log, err := durable.Open(path, fsys, func(line []byte) bool {
		var e journalEntry
		if json.Unmarshal(line, &e) != nil || e.Result.Spec.Workload == nil {
			return false
		}
		loaded[e.Result.Spec.Key()] = e.Result
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return &Journal{log: log}, loaded, nil
}

// Append writes one completed cell and syncs it to stable storage.
// Safe for concurrent use.
func (j *Journal) Append(res Result) error {
	return j.log.Append(journalEntry{Result: res})
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.log.Close() }

// frontier is the pool's one journaling rule: slots settle in any order,
// but slot i's record is appended only once slots 0..i-1 have all
// settled, so the journal grows in sweep order and matches a one-worker
// run byte for byte. A failed slot settles nil and advances the
// watermark without appending; journal-restored cells never reach the
// frontier, because they are filtered out before the pool runs. A crash
// therefore loses the cells still running plus the ones that finished
// after the oldest running cell.
type frontier struct {
	mu    sync.Mutex
	j     *Journal
	onErr func(slot int, err error)
	// mark is the watermark: slots [0, mark) are settled and flushed.
	// settled holds the slots at or past it; a nil entry has nothing to
	// append.
	mark    int
	settled map[int]*Result
}

// newFrontier returns a watermark over j (nil = no journal; Settle is a
// no-op). onErr receives each failed append with its slot, under the
// frontier's lock.
func newFrontier(j *Journal, onErr func(slot int, err error)) *frontier {
	return &frontier{j: j, onErr: onErr, settled: map[int]*Result{}}
}

// Settle marks slot finished and appends every record the watermark now
// passes. res is a fresh success to journal; nil settles a failed
// slot. Safe for concurrent use.
func (f *frontier) Settle(slot int, res *Result) {
	if f.j == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.settled[slot] = res
	for {
		next, ok := f.settled[f.mark]
		if !ok {
			return
		}
		delete(f.settled, f.mark)
		if next != nil {
			if err := f.j.Append(*next); err != nil {
				f.onErr(f.mark, err)
			}
		}
		f.mark++
	}
}
