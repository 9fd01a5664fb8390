// Package profile backs the -cpuprofile and -memprofile flags of the
// command-line tools with runtime/pprof, so a run's CPU split between the
// simulator and the Go runtime can be inspected with `go tool pprof`.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Start begins CPU profiling into cpuFile when it is non-empty. The
// returned stop function ends the CPU profile and, when memFile is
// non-empty, writes a heap profile (after a GC, so it shows live data as
// of the end of the run; its alloc_* samples cover the whole run). stop
// is idempotent and reports failures on stderr, so a tool may both defer
// it and call it ahead of os.Exit.
func Start(cpuFile, memFile string) (stop func(), err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpu != nil {
				pprof.StopCPUProfile()
				if err := cpu.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				}
			}
			if memFile != "" {
				if err := writeHeap(memFile); err != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				}
			}
		})
	}, nil
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
