// Package profiling wires the standard pprof and execution-trace
// collectors into the command-line tools. internal/cli calls it for the
// -cpuprofile/-memprofile/-exectrace flags every profiling binary shares.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Start begins the collectors whose paths are non-empty and returns a stop
// function that flushes and closes them all. The CPU profile and execution
// trace record from Start until stop; the allocation profile is a snapshot
// taken at stop time after a final GC, so it reflects live heap plus
// cumulative allocation counts for the whole run.
func Start(cpuPath, memPath, tracePath string) (func(), error) {
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	fail := func(err error) (func(), error) {
		stopAll()
		return nil, err
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("profiling: cpu: %w", err))
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return fail(err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("profiling: trace: %w", err))
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if memPath != "" {
		stops = append(stops, func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "profiling: mem: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flatten transient garbage so live objects stand out
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "profiling: mem: %v\n", err)
			}
		})
	}
	return stopAll, nil
}
