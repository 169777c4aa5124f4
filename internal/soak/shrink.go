package soak

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hmccoal/internal/durable"
	"hmccoal/internal/trace"
)

// DefaultShrinkBudget caps how many re-runs a single shrink may spend.
// Each trial is a full (shrunken) simulation, so the budget bounds the
// harness's worst-case time per failure.
const DefaultShrinkBudget = 64

// Repro is a minimal reproduction of a failing scenario: the scenario
// block regenerates the original trace, and the reduction fields cut it
// down to the smallest slice the shrinker could still make fail. A repro
// file plus the binary is everything needed to replay the violation.
type Repro struct {
	Scenario Scenario `json:"scenario"`
	// PrefixLen keeps only the first PrefixLen accesses of the trace.
	PrefixLen int `json:"prefix_len"`
	// DropCPUs removes every access issued by these cores (applied after
	// the prefix cut).
	DropCPUs []int `json:"drop_cpus,omitempty"`
	// BER/DropRate override the scenario's fault rates when lower rates
	// still reproduce the failure (negative = keep the scenario's value).
	BER      float64 `json:"ber"`
	DropRate float64 `json:"drop_rate"`
	// Error is the failure message of the minimized run.
	Error string `json:"error"`
	// ShrinkSteps counts the re-runs the shrinker spent; OrigLen is the
	// unshrunken trace length, for the "how much smaller" headline.
	ShrinkSteps int `json:"shrink_steps"`
	OrigLen     int `json:"orig_len"`
}

// reduced applies the repro's reductions to a freshly generated trace and
// returns the scenario the minimized run should use.
func (r Repro) reduced(accs []trace.Access) (Scenario, []trace.Access) {
	sc := r.Scenario
	if r.BER >= 0 {
		sc.BER = r.BER
	}
	if r.DropRate >= 0 {
		sc.DropRate = r.DropRate
	}
	n := r.PrefixLen
	if n < 0 || n > len(accs) {
		n = len(accs)
	}
	cut := accs[:n]
	if len(r.DropCPUs) == 0 {
		return sc, cut
	}
	drop := make(map[uint8]bool, len(r.DropCPUs))
	for _, c := range r.DropCPUs {
		if c >= 0 && c < 256 {
			drop[uint8(c)] = true
		}
	}
	kept := make([]trace.Access, 0, len(cut))
	for _, a := range cut {
		if !drop[a.CPU] {
			kept = append(kept, a)
		}
	}
	return sc, kept
}

// Shrink minimizes a failing scenario to the smallest reproduction the
// budget allows: first bisecting the trace to a minimal failing prefix,
// then dropping whole CPUs, then lowering the fault rates a decade at a
// time. Every candidate is re-verified by actually re-running it — a
// reduction is kept only if the failure persists (any Failed
// classification counts; chasing the exact same message would make the
// shrinker brittle against diagnostics that mention trace positions).
func Shrink(sc Scenario, accs []trace.Access, run RunFunc, budget int) Repro {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	rep := Repro{
		Scenario: sc, PrefixLen: len(accs), BER: -1, DropRate: -1,
		OrigLen: len(accs),
	}
	lastErr := ""
	// fails re-runs one candidate reduction, spending budget.
	fails := func(cand Repro) bool {
		if rep.ShrinkSteps >= budget {
			return false
		}
		rep.ShrinkSteps++
		cs, ct := cand.reduced(accs)
		err := run(cs, ct)
		if Classify(cs, err) != Failed {
			return false
		}
		lastErr = err.Error()
		return true
	}

	// Record the original failure message first so the repro is valid even
	// if no reduction sticks (also confirms the failure is deterministic).
	if !fails(rep) {
		rep.Error = "failure did not reproduce deterministically"
		return rep
	}

	// Phase 1: binary-search the minimal failing prefix. Invariant: a
	// prefix of length hi fails, one of length lo does not.
	lo, hi := 0, rep.PrefixLen
	for lo+1 < hi && rep.ShrinkSteps < budget {
		mid := lo + (hi-lo)/2
		cand := rep
		cand.PrefixLen = mid
		if fails(cand) {
			hi = mid
		} else {
			lo = mid
		}
	}
	rep.PrefixLen = hi

	// Phase 2: drop whole CPUs, greedily, in ascending order.
	cpus := map[uint8]bool{}
	for _, a := range accs[:rep.PrefixLen] {
		cpus[a.CPU] = true
	}
	ids := make([]int, 0, len(cpus))
	for c := range cpus {
		ids = append(ids, int(c))
	}
	sort.Ints(ids)
	for _, c := range ids {
		if len(cpus) <= 1 {
			break // an empty trace cannot fail interestingly
		}
		cand := rep
		cand.DropCPUs = append(append([]int(nil), rep.DropCPUs...), c)
		if fails(cand) {
			rep.DropCPUs = cand.DropCPUs
			delete(cpus, uint8(c))
		}
	}

	// Phase 3: lower the fault rates a decade at a time while the failure
	// persists — a repro at BER/100 implicates the mechanism, not the
	// noise level.
	for rate := sc.BER / 10; rate > 1e-12; rate /= 10 {
		cand := rep
		cand.BER = rate
		if !fails(cand) {
			break
		}
		rep.BER = rate
	}
	for rate := sc.DropRate / 10; rate > 1e-12; rate /= 10 {
		cand := rep
		cand.DropRate = rate
		if !fails(cand) {
			break
		}
		rep.DropRate = rate
	}

	rep.Error = lastErr
	return rep
}

// WriteRepro saves a repro under dir as repro-seed<seed>-run<index>.json
// and returns the path. The write is atomic, so a checkpointed
// Failure.ReproPath never points at a torn file.
func WriteRepro(dir string, r Repro) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("soak: repro dir: %w", err)
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("soak: repro: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("repro-seed%d-run%d.json", r.Scenario.Seed, r.Scenario.Index))
	if err := durable.WriteFileAtomic(path, append(buf, '\n')); err != nil {
		return "", fmt.Errorf("soak: repro: %w", err)
	}
	return path, nil
}

// ReadRepro loads a repro file.
func ReadRepro(path string) (Repro, error) {
	var r Repro
	data, err := os.ReadFile(path)
	if err != nil {
		return r, fmt.Errorf("soak: repro: %w", err)
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("soak: repro %s: %w", path, err)
	}
	return r, nil
}

// Replay regenerates a repro's trace, applies its reductions, and re-runs
// it. It returns the run error — non-nil with a Failed classification
// means the repro still reproduces. run may be nil for RunScenario.
func Replay(r Repro, run RunFunc) error {
	if run == nil {
		run = RunScenario
	}
	accs, err := r.Scenario.Trace()
	if err != nil {
		return err
	}
	sc, cut := r.reduced(accs)
	return run(sc, cut)
}
