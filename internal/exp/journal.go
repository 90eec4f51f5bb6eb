// Crash-safe sweep journaling. A Journal is a durable.Log of
// {Spec.key(), Result} records. Sweeps append every fresh cell as it
// completes; a killed run restarted with the same journal restores the
// completed cells and simulates only the remainder, so the combined
// output is byte-identical to an uninterrupted run (results are always
// committed and rendered in sweep order). Restored results do not keep
// their marshaled Spec — JSON does not round-trip every Spec field
// bit-exactly — the caller's canonical spec replaces it (see
// Runner.fromJournal and RunSpecsJournaled).
package exp

import (
	"encoding/json"
	"fmt"

	"memnet/internal/durable"
)

// journalEntry is one line of the file.
type journalEntry struct {
	Key    string `json:"key"`
	Result Result `json:"result"`
}

// Journal appends completed sweep cells to a JSON-lines file.
type Journal struct {
	log *durable.Log
}

// OpenJournal opens (creating if needed) the journal at path on fsys
// (nil = the real filesystem) and returns it together with every result
// recoverable from previous runs, keyed by Spec.key(). A trailing
// partial or corrupt line — the signature of a crash mid-append — is
// truncated away so the file stays valid for appending.
func OpenJournal(path string, fsys durable.FS) (*Journal, map[string]Result, error) {
	loaded := map[string]Result{}
	log, err := durable.Open(path, fsys, func(line []byte) bool {
		var e journalEntry
		if json.Unmarshal(line, &e) != nil || e.Key == "" {
			return false
		}
		loaded[e.Key] = e.Result
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return &Journal{log: log}, loaded, nil
}

// Append writes one completed cell and syncs it to stable storage.
// Safe for concurrent use.
func (j *Journal) Append(key string, res Result) error {
	return j.log.Append(journalEntry{Key: key, Result: res})
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.log.Close() }
