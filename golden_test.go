package hmccoal

// The determinism contract behind every hot-path optimization: for a fixed
// seed trace, the simulator's Result — rendered through Summary() plus the
// raw counters — must stay byte-identical across all three miss-handling
// architectures, both front-ends under both issue policies on every
// backend, and both front-ends on a faulty HMC link. Regenerate with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenMetrics

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

const goldenPath = "testdata/golden_metrics.txt"

// goldenCase is one pinned configuration: a benchmark, a miss-handling
// architecture and the front-end, scheduler, backend and fault settings.
// Cases with retry set also render the fault-recovery counters.
type goldenCase struct {
	bench   string
	mode    Mode
	fe      FrontendKind
	sched   SchedKind
	backend BackendKind
	faults  FaultConfig
	retry   bool
}

// goldenCases lists the pinned configurations in render order. The first
// six are the original architecture sections; the front-end × scheduler ×
// backend matrix and the faulted runs follow, so adding them left the
// original sections byte-identical at the top of the file.
func goldenCases() []goldenCase {
	benches := []string{"HPCG", "FT"}
	var cases []goldenCase
	for _, bench := range benches {
		for _, mode := range []Mode{ModeBaseline, ModeDMCOnly, ModeTwoPhase} {
			cases = append(cases, goldenCase{bench: bench, mode: mode})
		}
	}
	fes := []FrontendKind{FrontendTwoPhase, FrontendWarp}
	for _, bench := range benches {
		for _, fe := range fes {
			for _, sched := range []SchedKind{SchedFRFCFS, SchedHetero} {
				for _, backend := range []BackendKind{BackendHMC, BackendDDR, BackendIdeal} {
					cases = append(cases, goldenCase{bench: bench, mode: ModeTwoPhase,
						fe: fe, sched: sched, backend: backend, retry: true})
				}
			}
		}
		for _, fe := range fes {
			cases = append(cases, goldenCase{bench: bench, mode: ModeTwoPhase, fe: fe,
				faults: FaultConfig{Seed: 5, BER: 1e-4, MaxRetries: 1}, retry: true})
		}
	}
	return cases
}

// renderGoldenMetrics runs the fixed workloads under every pinned
// configuration and renders everything the figures depend on.
func renderGoldenMetrics(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	traces := map[string][]Access{}
	for _, gc := range goldenCases() {
		accs, ok := traces[gc.bench]
		if !ok {
			var err error
			accs, err = GenerateTrace(gc.bench, TraceParams{CPUs: 12, OpsPerCPU: 900, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			traces[gc.bench] = accs
		}
		cfg := DefaultConfig()
		cfg.Mode = gc.mode
		cfg.Frontend, cfg.Sched, cfg.Backend = gc.fe, gc.sched, gc.backend
		cfg.HMC.Fault = gc.faults
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(accs)
		if err != nil {
			t.Fatal(err)
		}
		if gc.retry {
			fmt.Fprintf(&b, "=== %s/%v/%v/%v/%v", gc.bench, gc.mode, gc.fe, gc.sched, gc.backend)
			if gc.faults.Enabled() {
				fmt.Fprintf(&b, "/faults seed=%d ber=%g retries=%d", gc.faults.Seed, gc.faults.BER, gc.faults.MaxRetries)
			}
			fmt.Fprintf(&b, " ===\n%s", res.Summary())
		} else {
			fmt.Fprintf(&b, "=== %s/%v ===\n%s", gc.bench, gc.mode, res.Summary())
		}
		fmt.Fprintf(&b, "RuntimeCycles=%d LLCMisses=%d HMCRequests=%d StallCycles=%d\n",
			res.RuntimeCycles, res.LLCMisses, res.HMCRequests, res.StallCycles)
		fmt.Fprintf(&b, "MSHR allocs=%d merged=%d split=%d stalls=%d\n",
			res.MSHR.Allocations, res.MSHR.MergedTargets, res.MSHR.SplitRequests, res.MSHR.FullStalls)
		fmt.Fprintf(&b, "L1=%+v\nL2=%+v\nLLC=%+v\n", res.L1, res.L2, res.LLC)
		fmt.Fprintf(&b, "HMC reads=%d writes=%d packet=%d requested=%d transferred=%d rowact=%d conflicts=%d conflictwait=%d\n",
			res.HMC.Reads, res.HMC.Writes, res.HMC.PacketBytes, res.HMC.RequestedBytes,
			res.HMC.TransferredBytes, res.HMC.RowActivations, res.HMC.BankConflicts, res.HMC.ConflictWait)
		fmt.Fprintf(&b, "Coal batches=%d batchreqs=%d sort=%d dmc=%d lat=%d/%d peak=%d fills=%d fillcycles=%d\n",
			res.Coalescer.Batches, res.Coalescer.BatchRequests, res.Coalescer.SortCycles,
			res.Coalescer.DMCCycles, res.Coalescer.RequestLatency, res.Coalescer.LatencySamples,
			res.Coalescer.CRQPeak, res.Coalescer.CRQFills, res.Coalescer.CRQFillCycles)
		if gc.retry {
			fmt.Fprintf(&b, "Retry poisoned=%d retried=%d backoff=%d failed=%d degraded entries=%d cycles=%d splits=%d\n",
				res.Coalescer.PoisonedPackets, res.Coalescer.RetriedPackets, res.Coalescer.RetryBackoffCycles,
				res.Coalescer.FailedTargets, res.Coalescer.DegradedEntries, res.Coalescer.DegradedCycles,
				res.Coalescer.DegradedSplits)
		}
	}
	return b.String()
}

// TestGoldenMetrics locks the byte-identical-output contract. Any
// optimization that shifts a single counter or a single formatted byte of
// Summary() fails here.
func TestGoldenMetrics(t *testing.T) {
	got := renderGoldenMetrics(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden metrics drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGoldenRepeatable guards run-to-run determinism within one binary: two
// fresh systems over the same trace must agree exactly.
func TestGoldenRepeatable(t *testing.T) {
	a := renderGoldenMetrics(t)
	b := renderGoldenMetrics(t)
	if a != b {
		t.Error("two identical runs produced different metrics")
	}
}
