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
// their paired full-power baselines) runs at -jobs 2 with a journal and
// is SIGKILLed once the journal holds a complete line, then rerun on the
// same journal. The resumed run's stdout, journal and rendered figure must be
// byte-identical to an uninterrupted -jobs 1 run, and its -v log must
// show cells both restored and run, so a kill that landed after the
// sweep finished fails instead of passing vacuously.
func TestKillResumeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-resume smoke skipped in -short mode")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	args := func(name string, extra ...string) []string {
		return append([]string{"-run", "seeds", "-simtime", "220us", "-warmup", "20us",
			"-journal", filepath.Join(dir, name+".jsonl"), "-outdir", filepath.Join(dir, name)}, extra...)
	}

	refOut, err := exec.Command(bin, args("ref", "-jobs", "1")...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// The victim holds the journal's flock, so watch the raw file for a
	// complete line rather than opening it as a journal.
	journalPath := filepath.Join(dir, "run.jsonl")
	victim := exec.Command(bin, args("run", "-jobs", "2", "-v")...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if data, _ := os.ReadFile(journalPath); bytes.IndexByte(data, '\n') >= 0 {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatal("victim never journaled a cell")
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
	for _, f := range [][2]string{{"ref.jsonl", "run.jsonl"}, {"ref/seeds.txt", "run/seeds.txt"}} {
		want, err := os.ReadFile(filepath.Join(dir, f[0]))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, f[1]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the uninterrupted run's %s", f[1], f[0])
		}
	}
	t.Logf("kill-resume ok: %d cell(s) restored, %d ran", restored, ran)
}
