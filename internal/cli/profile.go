package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles arms CPU and/or heap profiling per -cpuprofile and
// -memprofile. Both files are created up front so a bad path fails fast,
// before any simulation runs. The returned stop function flushes the
// profiles; it is idempotent, so a command can defer it and still call
// it early.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile, memFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("bad -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("bad -cpuprofile: %v", err)
		}
		cpuFile = f
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("bad -memprofile: %v", err)
		}
		memFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memFile != nil {
			// Collect garbage first so the heap profile shows what the
			// run keeps live, not what the collector hasn't reached yet.
			runtime.GC()
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
			memFile.Close()
		}
	}, nil
}
