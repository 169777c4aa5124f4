package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"hmccoal"
	"hmccoal/internal/cache"
	"hmccoal/internal/jobserv"
	"hmccoal/internal/sim"
	"hmccoal/internal/workloads"
)

// grid is one sweep grid a workload runs through the public sweep functions
// (RunAllContext, Figure14TableContext, StrideLadderContext). job mirrors
// the grid's per-job configuration so the traced serial replay can drive
// the simulator's own entry points job by job; the replay's results must
// equal theirs byte for byte, so a mirror that drifts from them fails
// the run instead of timing the wrong work.
type grid struct {
	kind     hmccoal.SweepKind // SweepRunAll, SweepFig14 or SweepStride
	params   hmccoal.TraceParams
	backend  hmccoal.BackendKind
	frontend hmccoal.FrontendKind
	sched    hmccoal.SchedKind
}

// fig14Timeouts is the Figure 14 timeout axis, passed explicitly so the
// in-process sweep and the service job run the same grid.
var fig14Timeouts = []uint64{16, 20, 24, 28}

// strideCombos mirrors the stride grid's front-end × scheduler axis, in
// grid order.
var strideCombos = []struct {
	fe    hmccoal.FrontendKind
	sched hmccoal.SchedKind
}{
	{hmccoal.FrontendTwoPhase, hmccoal.SchedFRFCFS},
	{hmccoal.FrontendTwoPhase, hmccoal.SchedHetero},
	{hmccoal.FrontendWarp, hmccoal.SchedFRFCFS},
	{hmccoal.FrontendWarp, hmccoal.SchedHetero},
}

// runAllModes mirrors the RunAll grid's architecture axis; the fourth job
// of every benchmark is its payload analysis.
var runAllModes = []hmccoal.Mode{hmccoal.ModeBaseline, hmccoal.ModeDMCOnly, hmccoal.ModeTwoPhase}

func (g grid) benches() []string {
	if g.kind == hmccoal.SweepStride {
		return workloads.StrideNames()
	}
	return hmccoal.Benchmarks()
}

// perBench is the number of grid jobs per benchmark trace.
func (g grid) perBench() int {
	switch g.kind {
	case hmccoal.SweepFig14:
		return len(fig14Timeouts)
	case hmccoal.SweepStride:
		return len(strideCombos)
	}
	return len(runAllModes) + 1
}

func (g grid) jobs() int { return len(g.benches()) * g.perBench() }

// job returns grid job i's configuration, or payload=true for a RunAll
// payload-analysis job.
func (g grid) job(i int) (cfg hmccoal.Config, payload bool) {
	cfg = hmccoal.DefaultConfig()
	cfg.Backend, cfg.Frontend, cfg.Sched = g.backend, g.frontend, g.sched
	k := i % g.perBench()
	switch g.kind {
	case hmccoal.SweepRunAll:
		if k == len(runAllModes) {
			return cfg, true
		}
		cfg.Mode = runAllModes[k]
	case hmccoal.SweepFig14:
		cfg.Coalescer.TimeoutCycles = fig14Timeouts[k]
	case hmccoal.SweepStride:
		cfg.Frontend, cfg.Sched = strideCombos[k].fe, strideCombos[k].sched
	}
	return cfg, false
}

// label names the grid in reports and keys its captured cells.
func (g grid) label() string {
	return fmt.Sprintf("%s/%v/%v/%v/%d", g.kind, g.backend, g.frontend, g.sched, g.params.OpsPerCPU)
}

// cellKey is the key under which a dispatched group's cells are captured:
// the decoded spec fields that identify a grid.
func cellKey(s hmccoal.SweepSpec) string {
	be, fe, sc := s.Backend, s.Frontend, s.Sched
	if be == "" {
		be = hmccoal.BackendHMC.String()
	}
	if fe == "" || s.Kind == hmccoal.SweepStride {
		fe = hmccoal.FrontendTwoPhase.String()
	}
	if sc == "" || s.Kind == hmccoal.SweepStride {
		sc = hmccoal.SchedFRFCFS.String()
	}
	return fmt.Sprintf("%s/%s/%s/%s/%d", s.Kind, be, fe, sc, s.Params.OpsPerCPU)
}

// key is the grid's cellKey.
func (g grid) key() string {
	s := hmccoal.SweepSpec{Kind: g.kind, Params: g.params, Backend: g.backend.String()}
	if g.kind != hmccoal.SweepStride {
		s.Frontend, s.Sched = g.frontend.String(), g.sched.String()
	}
	return cellKey(s)
}

// jobSpec is the service job that runs this grid.
func (g grid) jobSpec(batch int) jobserv.Spec {
	s := jobserv.Spec{
		Kind:    jobserv.KindSweep,
		Sweep:   string(g.kind),
		CPUs:    g.params.CPUs,
		Ops:     g.params.OpsPerCPU,
		Seed:    g.params.Seed,
		Backend: g.backend.String(),
		Batch:   batch,
	}
	switch g.kind {
	case hmccoal.SweepFig14:
		s.Timeouts = fig14Timeouts
	case hmccoal.SweepStride:
		return s
	}
	s.Frontend, s.Sched = g.frontend.String(), g.sched.String()
	return s
}

// gridOut is what one sweep call produced.
type gridOut struct {
	// items are the output units compared across passes, against the
	// stored digests and against the service: one JSON document per
	// benchmark run (RunAll, stride) or one table line (Figure 14).
	items []string
	// runs are the RunAll rows, whose results feed the accuracy metrics.
	runs []hmccoal.BenchmarkRun
	// results are the simulation results the sweep returns (RunAll and
	// stride grids; Figure 14 returns only its table).
	results []hmccoal.Result
}

// run executes the grid once through its public sweep function.
func (g grid) run(ctx context.Context, opt hmccoal.SweepOptions) (gridOut, error) {
	var out gridOut
	opt.Backend, opt.Frontend, opt.Sched = g.backend, g.frontend, g.sched
	var err error
	switch g.kind {
	case hmccoal.SweepRunAll:
		out.runs, err = hmccoal.RunAllContext(ctx, g.params, opt)
		for _, r := range out.runs {
			out.results = append(out.results, r.Baseline, r.DMCOnly, r.TwoPhase)
			if err == nil {
				err = out.addItem(r)
			}
		}
	case hmccoal.SweepFig14:
		var table string
		table, err = hmccoal.Figure14TableContext(ctx, g.params, fig14Timeouts, opt)
		out.items = tableLines(table)
	case hmccoal.SweepStride:
		var runs []hmccoal.StrideRun
		runs, err = hmccoal.StrideLadderContext(ctx, g.params, opt)
		for _, r := range runs {
			out.results = append(out.results, r.Results[:]...)
			if err == nil {
				err = out.addItem(r)
			}
		}
	default:
		err = fmt.Errorf("perfbench: no sweep function for %s grids", g.kind)
	}
	if err != nil {
		return gridOut{}, fmt.Errorf("%s: %w", g.label(), err)
	}
	return out, nil
}

func (o *gridOut) addItem(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	o.items = append(o.items, string(raw))
	return nil
}

// tableLines splits a rendered table into its non-empty lines.
func tableLines(table string) []string {
	var out []string
	for _, l := range strings.Split(table, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// serviceItems extracts the comparable items from a service sweep job's
// result document, in the shape run produces in process.
func (g grid) serviceItems(doc []byte) ([]string, error) {
	var d struct {
		Runs     []json.RawMessage `json:"runs"`
		Figure14 string            `json:"figure14"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("decode %s result: %w", g.label(), err)
	}
	if g.kind == hmccoal.SweepFig14 {
		return tableLines(d.Figure14), nil
	}
	items := make([]string, len(d.Runs))
	for i, r := range d.Runs {
		items[i] = string(r)
	}
	return items, nil
}

// simAcc collects what the traced serial replay observed: the simulated
// results of every job it ran and the scheduler-twin cycle totals behind
// frontend.hetero_cycle_ratio.
type simAcc struct {
	results        []hmccoal.Result
	heteroCycles   uint64
	frfcfsCycles   uint64
	twoPhaseFE     []hmccoal.Result // results of the two-phase front-end, the coalescer and MSHR layers' runs
	accesses       uint64           // simulated accesses stepped through sim.step spans
	coreCycles     float64          // runtime × cores, the base of the stall share
	batchSlots     float64          // two-phase sorter batches × sequence width
	mallocs, jobs  uint64
	payloadHier    *cache.Hierarchy
	payloadHierCfg cache.HierarchyConfig
}

// twin runs cfg again with the other issue policy on sys and adds both
// runtimes to the scheduler comparison.
func (a *simAcc) twin(sys *sim.System, idx *hmccoal.TraceIndex, cfg hmccoal.Config, res hmccoal.Result) error {
	other := cfg
	other.Sched = hmccoal.SchedHetero
	if cfg.Sched == hmccoal.SchedHetero {
		other.Sched = hmccoal.SchedFRFCFS
	}
	if err := sys.Reset(other); err != nil {
		return err
	}
	if err := sys.StartIndexed(idx); err != nil {
		return err
	}
	for {
		done, err := sys.Step()
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	tw, err := sys.Finish()
	if err != nil {
		return err
	}
	h, f := tw, res
	if other.Sched == hmccoal.SchedFRFCFS {
		h, f = res, tw
	}
	a.heteroCycles += h.RuntimeCycles
	a.frfcfsCycles += f.RuntimeCycles
	return nil
}

// replayedTrace is one trace the serial replay generated, kept for the
// per-layer replays.
type replayedTrace struct {
	key  string // benchmark and scale
	cfg  hmccoal.Config
	accs []hmccoal.Access
}

// simulate runs one job through NewSystem/Reset, StartIndexed, Step and
// Finish, each call inside its own span under parent. sys is the lane
// being recycled (nil for a fresh one).
func simulate(tr *tracer, parent int, sys *sim.System, cfg hmccoal.Config, idx *hmccoal.TraceIndex, acc *simAcc) (*sim.System, hmccoal.Result, error) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var err error
	if sys == nil {
		sp := tr.begin("sim.new_system", parent)
		sys, err = sim.NewSystem(cfg)
		tr.end(sp)
	} else {
		sp := tr.begin("sim.reset", parent)
		err = sys.Reset(cfg)
		tr.end(sp)
	}
	if err != nil {
		return nil, hmccoal.Result{}, err
	}
	if err := sys.StartIndexed(idx); err != nil {
		return nil, hmccoal.Result{}, err
	}
	sp := tr.begin("sim.step", parent)
	for {
		done, err := sys.Step()
		if err != nil {
			tr.end(sp)
			return nil, hmccoal.Result{}, err
		}
		if done {
			break
		}
	}
	tr.end(sp)
	acc.accesses += uint64(idx.Len())
	sp = tr.begin("sim.finish", parent)
	res, err := sys.Finish()
	tr.end(sp)
	if err != nil {
		return nil, hmccoal.Result{}, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	acc.mallocs += ms1.Mallocs - ms0.Mallocs
	acc.jobs++
	acc.results = append(acc.results, res)
	acc.coreCycles += float64(res.RuntimeCycles) * float64(cfg.Hierarchy.CPUs)
	if cfg.Frontend == hmccoal.FrontendTwoPhase {
		acc.twoPhaseFE = append(acc.twoPhaseFE, res)
		acc.batchSlots += float64(res.Coalescer.Batches) * float64(cfg.Coalescer.Width)
	}
	return sys, res, nil
}

// analyzePayload runs one payload-analysis job on the replay's shared
// hierarchy, as the sweep engine does.
func analyzePayload(tr *tracer, parent int, cfg hmccoal.Config, accs []hmccoal.Access, acc *simAcc) (hmccoal.PayloadAnalysis, error) {
	if acc.payloadHier == nil || acc.payloadHierCfg != cfg.Hierarchy {
		h, err := cache.NewHierarchy(cfg.Hierarchy)
		if err != nil {
			return hmccoal.PayloadAnalysis{}, err
		}
		acc.payloadHier, acc.payloadHierCfg = h, cfg.Hierarchy
	}
	sp := tr.begin("sim.payload", parent)
	defer tr.end(sp)
	return sim.AnalyzePayloadWith(acc.payloadHier, accs, cfg.Coalescer.Width)
}

// generate builds one benchmark trace and its index, each in a span.
func generate(tr *tracer, parent int, bench string, p hmccoal.TraceParams, cpus int) ([]hmccoal.Access, *hmccoal.TraceIndex, error) {
	sp := tr.begin("workloads.gen", parent)
	accs, err := hmccoal.GenerateTrace(bench, p)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("sim.index", parent)
	idx, err := hmccoal.NewTraceIndex(accs, cpus)
	tr.end(sp)
	return accs, idx, err
}

// replay runs every job of the grid serially through the simulator's entry
// points and compares each result with the cell the traced pass captured
// for the same job. It returns the number of jobs compared and the number
// that differed; missing cells count as differing.
func (g grid) replay(tr *tracer, cells map[int]json.RawMessage, acc *simAcc, traces *[]replayedTrace) (attempted, failed int, err error) {
	root := tr.begin("replay "+g.label(), -1)
	defer tr.end(root)
	per := g.perBench()
	for b, bench := range g.benches() {
		cfg0, _ := g.job(b * per)
		accs, idx, err := generate(tr, root, bench, g.params, cfg0.Hierarchy.CPUs)
		if err != nil {
			return attempted, failed, fmt.Errorf("%s: %w", bench, err)
		}
		*traces = append(*traces, replayedTrace{key: traceID(bench, g.params), cfg: cfg0, accs: accs})
		var sys *sim.System
		for k := 0; k < per; k++ {
			i := b*per + k
			cfg, payload := g.job(i)
			var cell hmccoal.SweepCell
			if payload {
				if cell.Pay, err = analyzePayload(tr, root, cfg, accs, acc); err != nil {
					return attempted, failed, err
				}
			} else {
				if sys, cell.Res, err = simulate(tr, root, sys, cfg, idx, acc); err != nil {
					return attempted, failed, fmt.Errorf("%s job %d: %w", g.label(), i, err)
				}
				if g.kind == hmccoal.SweepRunAll && cfg.Mode == hmccoal.ModeTwoPhase {
					if err := acc.twin(sys, idx, cfg, cell.Res); err != nil {
						return attempted, failed, err
					}
				}
			}
			raw, err := json.Marshal(cell)
			if err != nil {
				return attempted, failed, err
			}
			attempted++
			if string(cells[i]) != string(raw) {
				failed++
			}
		}
	}
	return attempted, failed, nil
}
