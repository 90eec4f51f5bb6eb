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
	golden, err := os.ReadFile("testdata/accept_v1.wal")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	f.Add(golden)
	f.Add(append(bytes.Clone(golden), `{"job":{"id":"j9","runs":[{"work`...))
	f.Add(bytes.Join([][]byte{lines[0], lines[1], []byte(`{"job":{"id":"j2","runs":[}` + "\n"), lines[3]}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := oracleV1(data)
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
// tombstone, then drop every tombstoned id from the accepted ones.
func oracleV1(data []byte) map[string]AcceptedJob {
	jobs := map[string]AcceptedJob{}
	done := map[string]bool{}
	for _, line := range bytes.SplitAfter(data[:goodPrefix(data)], []byte("\n")) {
		var rec oracleV1Record
		if json.Unmarshal(bytes.TrimSuffix(line, []byte("\n")), &rec) != nil {
			continue // the empty split after the final newline
		}
		if rec.Job != nil && rec.Job.ID != "" {
			jobs[rec.Job.ID] = *rec.Job
		} else if rec.Done != "" {
			done[rec.Done] = true
		}
	}
	for id := range done {
		delete(jobs, id)
	}
	return jobs
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
