package metrics

import (
	"bytes"
	"strings"
	"testing"

	"memnet/internal/sim"
)

func exportFixture() []Entry {
	d := &Dump{
		Interval: 10 * sim.Microsecond,
		Ticks:    2,
		Series: []SeriesDump{
			{Name: "c", Kind: "counter", Samples: []float64{1.5, 2}},
			{Name: "h", Kind: "histogram", Bounds: []float64{10, 100},
				Hist: [][]uint64{{0, 3}, {1, 0}}},
		},
	}
	return []Entry{{Key: "cell-a", Dump: d}, {Key: "skip", Dump: nil}, {Key: "cell-b", Dump: d}}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, exportFixture()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 { // 2 series × 2 live entries; nil dump skipped
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	want := `{"key":"cell-a","series":"c","kind":"counter","interval_ps":10000000,"start_ps":0,"first_tick":1,"samples":[1.5,2]}`
	if lines[0] != want {
		t.Errorf("line 0:\n got %s\nwant %s", lines[0], want)
	}
	if !strings.Contains(lines[1], `"bounds":[10,100]`) || !strings.Contains(lines[1], `"hist":[[0,3],[1,0]]`) {
		t.Errorf("histogram line missing bounds/hist: %s", lines[1])
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, exportFixture()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	wantLines := []string{
		"key,series,kind,tick,time_ps,bucket_le,value",
		"cell-a,c,counter,1,10000000,,1.5",
		"cell-a,c,counter,2,20000000,,2",
		"cell-a,h,histogram,1,10000000,100,3", // zero buckets omitted
		"cell-a,h,histogram,2,20000000,10,1",
	}
	for _, w := range wantLines {
		if !strings.Contains(got, w+"\n") {
			t.Errorf("CSV missing line %q in:\n%s", w, got)
		}
	}
	if strings.Contains(got, ",0\n") {
		t.Errorf("CSV contains a zero histogram bucket row:\n%s", got)
	}
}

func TestCSVQuoting(t *testing.T) {
	d := &Dump{Interval: 1, Series: []SeriesDump{{Name: "c", Kind: "counter", Samples: []float64{1}}}}
	var buf bytes.Buffer
	key := `mix|name="a,b"`
	if err := WriteCSV(&buf, []Entry{{Key: key, Dump: d}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"mix|name=""a,b"""`) {
		t.Errorf("key with CSV metacharacters not quoted:\n%s", buf.String())
	}
}

// TestExportDeterminism: identical entries produce identical bytes —
// the foundation of the -jobs 1 vs -jobs 8 export guarantee.
func TestExportDeterminism(t *testing.T) {
	var a, b, ca, cb bytes.Buffer
	if err := WriteJSONL(&a, exportFixture()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, exportFixture()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSONL export not byte-deterministic")
	}
	if err := WriteCSV(&ca, exportFixture()); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&cb, exportFixture()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Error("CSV export not byte-deterministic")
	}
}
