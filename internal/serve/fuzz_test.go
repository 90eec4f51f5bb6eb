package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"memnet/internal/durable"
)

// FuzzAcceptImport pins the v1 journal import over arbitrary file
// contents: it never panics, imports exactly the pending set an
// independent oracle reads from the longest prefix of good lines,
// returns it in id order, keeps the file in quarantine exactly when it
// had a tail past that prefix, and a second open returns the same set
// from the imported records.
func FuzzAcceptImport(f *testing.F) {
	addV1Seeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, _ := oracleV1(data)
		path := filepath.Join(t.TempDir(), "accept.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			a, pending, err := OpenAcceptLog(path, noSyncFS{})
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			a.Close()
			got := map[string]AcceptedJob{}
			for _, aj := range pending {
				got[aj.ID] = aj
			}
			if len(got) != len(pending) || !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d imported %+v, want %+v", pass, pending, want)
			}
			if !sort.SliceIsSorted(pending, func(i, k int) bool { return jobIDLess(pending[i].ID, pending[k].ID) }) {
				t.Fatalf("pass %d: pending out of id order: %+v", pass, pending)
			}
		}
		q, err := os.ReadFile(filepath.Join(path, durable.QuarantineDir, "accept.wal"+v1Suffix))
		if tail := goodPrefix(data) < len(data); tail != (err == nil) || (tail && !bytes.Equal(q, data)) {
			t.Fatalf("tail past the good prefix: %v, but quarantine read returned err=%v", tail, err)
		}
	})
}

// FuzzReplayV1 fuzzes the pure v1 replay rule in memory, where each
// execution costs microseconds rather than FuzzAcceptImport's temp dir,
// lock and puts, so the engine explores far more inputs: replayV1 must
// never panic, must stop exactly at the oracle's good prefix, and must
// return the oracle's pending set in acceptance order (each id where its
// first accept line is), with no id twice.
func FuzzReplayV1(f *testing.F) {
	addV1Seeds(f)
	f.Add([]byte("{\"done\":\"j1\"}\n{\"job\":{\"id\":\"j1\"}}\n{\"job\":{\"id\":\"j2\"}}\n{\"job\":{\"id\":\"j1\"}}\n"))
	f.Add([]byte("{\"job\":{\"id\":\"\"}}\n{\"job\":{\"id\":\"j3\"}}\n\n{\"job\":{\"id\":\"j4\"}}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pending, good := replayV1(data)
		if want := goodPrefix(data); good != want {
			t.Fatalf("replay stopped after %d bytes, the good prefix is %d", good, want)
		}
		want, order := oracleV1(data)
		got := map[string]AcceptedJob{}
		ids := make([]string, len(pending))
		for i, aj := range pending {
			got[aj.ID], ids[i] = aj, aj.ID
		}
		if len(got) != len(pending) || !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed %+v, want %+v", pending, want)
		}
		if len(ids) > 0 && !reflect.DeepEqual(ids, order) {
			t.Fatalf("pending in order %v, want acceptance order %v", ids, order)
		}
	})
}

// addV1Seeds seeds a v1 journal fuzz target with the committed journal,
// the journal with a torn last line, and one with a bad line mid-file.
func addV1Seeds(f *testing.F) {
	golden, err := os.ReadFile("testdata/accept_v1.wal")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	f.Add(golden)
	f.Add(append(bytes.Clone(golden), `{"job":{"id":"j9","runs":[{"work`...))
	f.Add(bytes.Join([][]byte{lines[0], lines[1], []byte(`{"job":{"id":"j2","runs":[}` + "\n"), lines[3]}, nil))
}

// noSyncFS is the real filesystem without fsyncs: the fuzz target
// checks what the import reads and writes, not what survives a power
// cut, and an fsync per record would slow each run a hundredfold.
type noSyncFS struct{ durable.OSFS }

func (noSyncFS) SyncDir(string) error { return nil }

func (noSyncFS) CreateTemp(dir, pattern string) (durable.File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ *os.File }

func (noSyncFile) Sync() error { return nil }

// oracleV1Record is one v1 journal line as the oracle reads it.
type oracleV1Record struct {
	Job  *AcceptedJob `json:"job"`
	Done string       `json:"done"`
}

// oracleV1 is the v1 replay rule, written apart from replayV1: walk
// complete lines until the first one that is not an accept or a
// tombstone, then drop every tombstoned id from the accepted ones. It
// returns the pending jobs by id, and their ids in the order of each
// one's first accept line.
func oracleV1(data []byte) (map[string]AcceptedJob, []string) {
	jobs := map[string]AcceptedJob{}
	done := map[string]bool{}
	var first []string
	for _, line := range bytes.SplitAfter(data[:goodPrefix(data)], []byte("\n")) {
		var rec oracleV1Record
		if json.Unmarshal(bytes.TrimSuffix(line, []byte("\n")), &rec) != nil {
			continue // the empty split after the final newline
		}
		if rec.Job != nil && rec.Job.ID != "" {
			if _, seen := jobs[rec.Job.ID]; !seen {
				first = append(first, rec.Job.ID)
			}
			jobs[rec.Job.ID] = *rec.Job
		} else if rec.Done != "" {
			done[rec.Done] = true
		}
	}
	var order []string
	for _, id := range first {
		if done[id] {
			delete(jobs, id)
		} else {
			order = append(order, id)
		}
	}
	return jobs, order
}

// goodPrefix is the length of the longest prefix of complete lines that
// each decode to an accept or a tombstone.
func goodPrefix(data []byte) int {
	n := 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var rec oracleV1Record
		if !bytes.HasSuffix(line, []byte("\n")) ||
			json.Unmarshal(line[:len(line)-1], &rec) != nil || (rec.Job == nil && rec.Done == "") {
			break
		}
		n += len(line)
	}
	return n
}
