package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestKillResumeSmoke is the real-process crash-resume check behind the
// `make killresumesmoke` CI step: the seeds sweep (five aware cells and
// their paired full-power baselines) runs at -jobs 2 with a store and is
// SIGKILLed once the store holds an entry, then rerun on the same store.
// The resumed run's stdout, rendered figure and store entries (file for
// file) must be byte-identical to an uninterrupted -jobs 1 run, and its
// -v log must show cells both restored and run, so a kill that landed
// after the sweep finished fails instead of passing vacuously. The
// entries compared are the *.json files: a temp file the kill left
// mid-Put is not an entry, and no process reads it.
func TestKillResumeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-resume smoke skipped in -short mode")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	args := func(name string, extra ...string) []string {
		return append([]string{"-run", "seeds", "-simtime", "220us", "-warmup", "20us",
			"-store", filepath.Join(dir, name, "store"), "-outdir", filepath.Join(dir, name)}, extra...)
	}

	refOut, err := exec.Command(bin, args("ref", "-jobs", "1")...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	entries := func(name string) []string {
		names, err := filepath.Glob(filepath.Join(dir, name, "store", "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	victim := exec.Command(bin, args("run", "-jobs", "2", "-v")...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for len(entries("run")) == 0 {
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatal("victim never stored a cell")
		}
		time.Sleep(time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()

	var stderr strings.Builder
	resume := exec.Command(bin, args("run", "-jobs", "2", "-v")...)
	resume.Stderr = &stderr
	out, err := resume.Output()
	if err != nil {
		t.Fatalf("resumed run: %v\n%s", err, stderr.String())
	}
	restored, ran := 0, 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "restored "):
			restored++
		case strings.HasPrefix(line, "ran "):
			ran++
		}
	}
	if restored == 0 || ran == 0 {
		t.Fatalf("resume restored %d and ran %d cell(s); the kill must land mid-sweep\n%s",
			restored, ran, stderr.String())
	}

	if !bytes.Equal(out, refOut) {
		t.Errorf("resumed stdout differs from the uninterrupted run\n--- reference ---\n%s--- resumed ---\n%s", refOut, out)
	}
	files := []string{"seeds.txt"}
	for _, name := range entries("ref") {
		files = append(files, filepath.Join("store", filepath.Base(name)))
	}
	if got, want := len(entries("run")), len(files)-1; got != want {
		t.Errorf("resumed store holds %d entries, the uninterrupted run's %d", got, want)
	}
	for _, f := range files {
		want, err := os.ReadFile(filepath.Join(dir, "ref", f))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "run", f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("run/%s differs from the uninterrupted run's", f)
		}
	}
	t.Logf("kill-resume ok: %d cell(s) restored, %d ran", restored, ran)
}
