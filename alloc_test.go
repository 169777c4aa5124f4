package hmccoal

// Allocation pins: each test fails when its path allocates more than it did
// when the pin was set. Lower a pin when an allocation is removed; raise it
// only with the reason written next to it.

import (
	"runtime"
	"testing"
	"unsafe"
)

// bytesPerRun measures heap bytes allocated per call of f, averaged over
// runs: the byte-weighted sibling of testing.AllocsPerRun.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestGenerateTraceAllocs pins trace generation at the paper scale. The
// output is allocated once at its exact size. The cores share one slab,
// reserved once the first core's length is known, so the slab and the
// output together stay under 2.5 times the output's bytes; regrowing the
// slab by quarters, or concatenating per-core slices, costs several times
// that. The count covers the per-core RNGs and the first core's growth.
func TestGenerateTraceAllocs(t *testing.T) {
	const maxAllocs, maxBytesPerOutputByte = 64, 2.5
	p := TraceParams{CPUs: 12, OpsPerCPU: 4000, Seed: 1}
	var accs []Access
	gen := func() {
		var err error
		if accs, err = GenerateTrace("FT", p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, gen)
	bytes := bytesPerRun(3, gen)
	if len(accs) != cap(accs) {
		t.Errorf("trace has %d accesses in a buffer of %d", len(accs), cap(accs))
	}
	out := float64(len(accs)) * float64(unsafe.Sizeof(Access{}))
	if allocs > maxAllocs {
		t.Errorf("GenerateTrace(FT) allocates %.0f objects per call, pin is %d", allocs, maxAllocs)
	}
	if bytes > maxBytesPerOutputByte*out {
		t.Errorf("GenerateTrace(FT) allocates %.0f B per call for a %.0f B trace (%.2fx), pin is %.1fx",
			bytes, out, bytes/out, maxBytesPerOutputByte)
	}
}

// TestSimTwoPhaseAllocs pins one BenchmarkSim/TwoPhase iteration: NewSystem
// plus Run over the HPCG bench trace. It measures 354 objects, 26 more than
// the 328 measured when the hot path was made allocation-free. Of those, 25 are the
// per-cache LRU generation arrays that let a batch lane Reset its tag
// arrays without clearing them, and one is the memory-backend wrapper.
// Another goroutine's allocations can land in the count, hence the slack.
func TestSimTwoPhaseAllocs(t *testing.T) {
	const maxAllocs = 354 + 2
	accs, err := GenerateTrace("HPCG", benchParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeTwoPhase
	allocs := testing.AllocsPerRun(3, func() {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(accs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("NewSystem+Run (two-phase, HPCG) allocates %.0f objects, pin is %d", allocs, maxAllocs)
	}
}
