package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLogReplay pins Open's replay over arbitrary file contents: it
// never panics, keeps exactly the longest prefix of complete lines the
// decoder accepts (and truncates the rest), is a fixed point on a second
// open, and leaves a file an append round-trips through.
func FuzzLogReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"k":"a"}` + "\n" + `{"k":"b"}` + "\n"))
	f.Add([]byte(`{"k":"a"}` + "\n" + `{"k":"b`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle: walk complete lines until the first one the
		// decoder rejects.
		var want []string
		keep := 0
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if !bytes.HasSuffix(line, []byte("\n")) || !decodeRec(&want)(line[:len(line)-1]) {
				break
			}
			keep += len(line)
		}
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			l, got := openRecs(t, path, nil)
			l.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d replayed %q, want %q", pass, got, want)
			}
			if got := readFile(t, path); got != string(data[:keep]) {
				t.Fatalf("pass %d left %q, want the %d-byte prefix %q", pass, got, keep, data[:keep])
			}
		}
		l, _ := openRecs(t, path, nil)
		if err := l.Append(rec{K: "appended"}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, got := openRecs(t, path, nil)
		l.Close()
		if want := append(want, "appended"); !reflect.DeepEqual(got, want) {
			t.Fatalf("after append replayed %q, want %q", got, want)
		}
	})
}
