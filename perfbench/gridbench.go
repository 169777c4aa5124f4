package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"hmccoal"
)

// gridWorkload is a workload made of sweep grids run back to back: one
// pass runs every grid once through the public sweep functions with the
// benchmark's worker count and batch width.
type gridWorkload struct {
	name    string
	grids   []grid
	minPass int
}

// sweepBatch is the lockstep lane width of every sweep the benchmark
// runs.
const sweepBatch = 2

// paperWorkload is the paper's evaluation: the RunAll grid behind Figs 8-13
// and 15 and the Fig 14 timeout grid on the HMC backend at a long trace
// scale, so per-job set-up is a small share.
func paperWorkload(seed int64) gridWorkload {
	p := hmccoal.TraceParams{CPUs: 12, OpsPerCPU: 4000, Seed: seed}
	return gridWorkload{
		name: "paper",
		grids: []grid{
			{kind: hmccoal.SweepRunAll, params: p},
			{kind: hmccoal.SweepFig14, params: p},
		},
		minPass: 3,
	}
}

// matrixWorkload is the front-end × scheduler × backend matrix at a short
// scale: the stride ladder (every front-end × scheduler combination) and
// the RunAll grid under the warp front-end with the hetero scheduler, on
// the ddr and ideal backends. The HMC device does none of its work.
func matrixWorkload(seed int64) gridWorkload {
	p := hmccoal.TraceParams{CPUs: 12, OpsPerCPU: 300, Seed: seed}
	w := gridWorkload{name: "matrix", minPass: 5}
	for _, be := range []hmccoal.BackendKind{hmccoal.BackendDDR, hmccoal.BackendIdeal} {
		w.grids = append(w.grids,
			grid{kind: hmccoal.SweepStride, params: p, backend: be},
			grid{kind: hmccoal.SweepRunAll, params: p, backend: be, frontend: hmccoal.FrontendWarp, sched: hmccoal.SchedHetero},
		)
	}
	return w
}

// jobs is the number of grid jobs in one pass.
func (w gridWorkload) jobs() int {
	n := 0
	for _, g := range w.grids {
		n += g.jobs()
	}
	return n
}

// traceLens is the length of every distinct benchmark trace of the
// workload, keyed by benchmark name and scale.
type traceLens map[string]int

func traceID(bench string, p hmccoal.TraceParams) string {
	return fmt.Sprintf("%s/%d/%d", bench, p.CPUs, p.OpsPerCPU)
}

// setup does what a fresh process needs before its first pass: generate
// and index every distinct trace and build one System per simulation lane.
func (w gridWorkload) setup(workers int) (traceLens, error) {
	lens := traceLens{}
	for _, g := range w.grids {
		cfg, _ := g.job(0)
		for _, b := range g.benches() {
			k := traceID(b, g.params)
			if _, ok := lens[k]; ok {
				continue
			}
			accs, err := hmccoal.GenerateTrace(b, g.params)
			if err != nil {
				return nil, err
			}
			if _, err := hmccoal.NewTraceIndex(accs, cfg.Hierarchy.CPUs); err != nil {
				return nil, err
			}
			lens[k] = len(accs)
		}
	}
	for i := 0; i < workers*sweepBatch; i++ {
		cfg, _ := w.grids[0].job(0)
		if _, err := hmccoal.NewSystem(cfg); err != nil {
			return nil, err
		}
	}
	return lens, nil
}

// passOut is one pass over every grid.
type passOut struct {
	outs  []gridOut
	wall  time.Duration
	alloc uint64
}

func (w gridWorkload) pass(ctx context.Context, workers int) (passOut, error) {
	var p passOut
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, g := range w.grids {
		out, err := g.run(ctx, hmccoal.SweepOptions{Workers: workers, Batch: sweepBatch})
		if err != nil {
			return p, err
		}
		p.outs = append(p.outs, out)
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	return p, nil
}

// items flattens a pass's output units in grid order.
func (p passOut) items() []string {
	var out []string
	for _, o := range p.outs {
		out = append(out, o.items...)
	}
	return out
}

// digest is the short hash the stored digests use.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// checkItems compares got with the reference items: each differing or
// missing item is one failure.
func checkItems(ref, got []string) int {
	failed := 0
	for i := range ref {
		if i >= len(got) || got[i] != ref[i] {
			failed++
		}
	}
	return failed + max(0, len(got)-len(ref))
}

// checkDigests compares items with the stored digests of the default
// seed: each differing or extra item is one failure, and so is each
// stored digest no item reached.
func checkDigests(stored []string, items []string) int {
	failed := 0
	for i, it := range items {
		if i >= len(stored) || stored[i] != digest(it) {
			failed++
		}
	}
	return failed + max(0, len(stored)-len(items))
}

// measure is the untraced run: a set-up and a pass, repeated until the
// run time is spent, then the output checks and the end-to-end metrics.
// Repeating the set-up before every pass makes its median sample the host
// over the whole run rather than over its first second.
func (w gridWorkload) measure(ctx context.Context, rep *report, workers int, seconds float64) error {
	var setups []float64
	var lens traceLens
	var passes []passOut
	begin := time.Now()
	for len(passes) < w.minPass || time.Since(begin).Seconds() < seconds {
		start := time.Now()
		var err error
		if lens, err = w.setup(workers); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		p, err := w.pass(ctx, workers)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}

	ref := passes[0].items()
	for _, p := range passes {
		rep.attempted += len(ref)
		rep.failed += checkItems(ref, p.items())
	}
	if stored, ok := storedDigests(w.name, rep.seed); ok {
		rep.attempted += len(ref)
		rep.failed += checkDigests(stored, ref)
	}

	var accesses, jobs int
	for _, g := range w.grids {
		per := g.perBench()
		for _, b := range g.benches() {
			accesses += per * lens[traceID(b, g.params)]
		}
		jobs += g.jobs()
	}
	var mps, jps, allocs []float64
	for _, p := range passes {
		mps = append(mps, float64(accesses)/p.wall.Seconds()/1e6)
		fmt.Fprintf(rep.out, "# pass %d: %.3f s, %.4g Maccess/s\n", len(mps), p.wall.Seconds(), mps[len(mps)-1])
		jps = append(jps, float64(jobs)/p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/(1<<20))
	}
	n := len(passes)
	rep.set("setup_s", median(setups), len(setups))
	rep.set("maccess_per_s", median(mps), n)
	rep.set("heap_alloc_mb", median(allocs), n)
	rep.set("sustained_jps", median(jps), n)
	w.simulated(rep, passes[0])
	rep.set("peak_rss_mb", peakRSSMB(), 1)
	return nil
}

// simulated reports the simulated end-to-end metrics of one pass.
func (w gridWorkload) simulated(rep *report, p passOut) {
	var cycles uint64
	var twoPhase []hmccoal.Result
	var runs []hmccoal.BenchmarkRun
	for i, o := range p.outs {
		for _, r := range o.results {
			cycles += r.RuntimeCycles
		}
		switch w.grids[i].kind {
		case hmccoal.SweepRunAll:
			runs = append(runs, o.runs...)
			for _, r := range o.runs {
				twoPhase = append(twoPhase, r.TwoPhase)
			}
		case hmccoal.SweepStride:
			twoPhase = append(twoPhase, o.results...)
		}
	}
	rep.set("sim_cycles", float64(cycles), 1)
	reportAccuracy(rep, twoPhase, runs)
}

// paperAverages are the paper's published means: coalescing efficiency
// of the MSHR-based, DMC-only and two-phase architectures (Fig 8) and the
// two-phase speedup (Fig 15), in percent.
var paperAverages = [4]float64{31.53, 38.13, 47.47, 13.14}

// accuracy returns the mean Fig 8 efficiencies of the three architectures
// and the mean Fig 15 speedup over runs, as fractions.
func accuracy(runs []hmccoal.BenchmarkRun) [4]float64 {
	var s [4]float64
	for _, r := range runs {
		s[0] += r.Baseline.CoalescingEfficiency()
		s[1] += r.DMCOnly.CoalescingEfficiency()
		s[2] += r.TwoPhase.CoalescingEfficiency()
		s[3] += r.Speedup()
	}
	for i := range s {
		s[i] /= float64(max(1, len(runs)))
	}
	return s
}

// paperErrPP is the largest absolute error of an accuracy vector against
// the paper's averages, in percentage points.
func paperErrPP(a [4]float64) float64 {
	var worst float64
	for i, want := range paperAverages {
		worst = max(worst, math.Abs(100*a[i]-want))
	}
	return worst
}

// reportAccuracy sets coal_eff, fig15_speedup and paper_err_pp.
func reportAccuracy(rep *report, twoPhase []hmccoal.Result, runs []hmccoal.BenchmarkRun) {
	var eff float64
	for _, r := range twoPhase {
		eff += r.CoalescingEfficiency()
	}
	rep.set("coal_eff", eff/float64(max(1, len(twoPhase))), len(twoPhase))
	var speedup float64
	for _, r := range runs {
		speedup += ratio(float64(r.Baseline.RuntimeCycles), float64(r.TwoPhase.RuntimeCycles))
	}
	rep.set("fig15_speedup", ratio(speedup, float64(len(runs))), len(runs))
	rep.set("paper_err_pp", paperErrPP(accuracy(runs)), len(runs))
}

// trace is the traced run: one untraced pass, the same pass submitted as
// service jobs through the traced stack, the serial replay of every grid
// against the cells that stack dispatched, and the layer replays over
// every distinct trace.
func (w gridWorkload) trace(ctx context.Context, rep *report, workers int, scratch string) error {
	// The first pass warms the process (heap growth, page faults); the
	// second is the untraced reference the traced pass is compared with.
	if _, err := w.pass(ctx, workers); err != nil {
		return err
	}
	ref, err := w.pass(ctx, workers)
	if err != nil {
		return err
	}
	tr := newTracer()
	st, err := startStack(scratch, workers, tr)
	if err != nil {
		return err
	}
	defer st.close()
	// The grids go to the service one at a time, as the untraced pass
	// runs them, so the two passes differ only by the service path.
	var load loadResult
	for i, g := range w.grids {
		one := st.openLoop([]jobReq{{tenant: serviceTenants[i%len(serviceTenants)], spec: g.jobSpec(sweepBatch)}}, 0)
		load.add(one)
		rep.attempted++
		if !one.recs[0].ok {
			rep.failed++
			continue
		}
		items, err := g.serviceItems(one.docs[0])
		if err != nil || checkItems(ref.outs[i].items, items) != 0 {
			rep.failed++
		}
	}
	rep.set("trace.overhead", load.wall.Seconds()/ref.wall.Seconds(), 1)
	rep.set("load.sustained_jps", float64(w.jobs())/load.wall.Seconds(), len(w.grids))
	reportStack(rep, st, load, workers)
	if err := st.close(); err != nil {
		return err
	}

	acc := &simAcc{}
	var traces []replayedTrace
	for _, g := range w.grids {
		a, f, err := g.replay(tr, st.dispatched(g.key()), acc, &traces)
		if err != nil {
			return err
		}
		rep.attempted += a
		rep.failed += f
	}
	reportSim(rep, tr, acc)
	return reportLayers(rep, tr, distinct(traces))
}

// distinct drops repeated traces (grids sharing a benchmark and scale).
func distinct(ts []replayedTrace) []replayedTrace {
	seen := map[string]bool{}
	var out []replayedTrace
	for _, t := range ts {
		if !seen[t.key] {
			seen[t.key] = true
			out = append(out, t)
		}
	}
	return out
}

// reportStack sets the jobserv, dsweep, sweep and load metrics of one
// traced schedule through the stack.
func reportStack(rep *report, st *stack, load loadResult, workerSlots int) {
	rungroup := st.tr.durations("dsweep.rungroup")
	worker := st.tr.durations("dsweep.worker")
	rep.set("dsweep.rungroup_ms", meanMs(rungroup), len(rungroup))
	rep.set("dsweep.worker_ms", meanMs(worker), len(worker))
	rep.set("dsweep.overhead_ms", meanMs(rungroup)-meanMs(worker), len(rungroup))
	rep.set("dsweep.requeues", float64(st.coord.Status().Requeues), 1)
	cs := st.runner.CacheStats()
	rep.set("dsweep.trace_cache_hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)), int(cs.Hits+cs.Misses))
	rep.set("sweep.groups", float64(st.groupCount()), 1)
	rep.set("sweep.parallel_eff", ratio(sum(worker).Seconds(), load.wall.Seconds()*float64(workerSlots)), len(worker))
	rep.set("jobserv.submit_ms", median(load.submitMs), len(load.submitMs))
	rep.set("jobserv.queue_max", float64(load.queueMax), len(load.running))
	rep.set("jobserv.refused", float64(load.refused), len(load.recs))
	rep.set("jobserv.running_share", mean(load.running), len(load.running))
	lat, late := openLoopLatencies(load.recs)
	rep.set("load.done_p50_ms", median(lat), len(lat))
	rep.setTail("load.done_p90_ms", lat, 90)
	p := tailPercentile(len(late))
	if p == 0 {
		p = 100 // too few sends for a tail with ten beyond: report the worst
	}
	rep.setTail("load.gen_late_ms", late, p)
}

// reportSim sets the sim.* host times and every simulated per-layer
// counter from the serial replay.
func reportSim(rep *report, tr *tracer, acc *simAcc) {
	for _, m := range []struct{ metric, span string }{
		{"workloads.gen_ms", "workloads.gen"},
		{"sim.index_ms", "sim.index"},
		{"sim.new_system_ms", "sim.new_system"},
		{"sim.reset_ms", "sim.reset"},
		{"sim.finish_ms", "sim.finish"},
		{"sim.payload_ms", "sim.payload"},
	} {
		ds := tr.durations(m.span)
		rep.set(m.metric, meanMs(ds), len(ds))
	}
	steps := tr.durations("sim.step")
	rep.set("sim.step_ns", ratio(float64(sum(steps)), float64(acc.accesses)), len(steps))
	rep.set("sim.allocs_per_run", ratio(float64(acc.mallocs), float64(acc.jobs)), int(acc.jobs))
	rep.set("frontend.hetero_cycle_ratio", ratio(float64(acc.heteroCycles), float64(acc.frfcfsCycles)), 1)

	var c struct {
		stall, l1Acc, l1Hit, llcMiss                      float64
		batches, batchReq, timeoutFl, dmcMerge, reqs      float64
		lat, latN, crq, crqN, alloc, merged, full, splits float64
		mem, conflicts, conflictWait, tokenWait           float64
		pktBytes, requested, transferred                  float64
	}
	for _, r := range acc.results {
		c.stall += float64(r.StallCycles)
		c.l1Acc += float64(r.L1.Accesses)
		c.l1Hit += float64(r.L1.Hits)
		c.llcMiss += float64(r.LLC.Misses)
		c.mem += float64(r.HMC.Requests)
		c.conflicts += float64(r.HMC.BankConflicts)
		c.conflictWait += float64(r.HMC.ConflictWait)
		c.tokenWait += float64(r.HMC.TokenWait)
		c.pktBytes += float64(r.HMC.PacketBytes)
		c.requested += float64(r.HMC.RequestedBytes)
		c.transferred += float64(r.HMC.TransferredBytes)
	}
	// The coalescer and MSHR counters describe the two-phase front-end;
	// the warp unit fills the same fields with its own meaning.
	for _, r := range acc.twoPhaseFE {
		c.batches += float64(r.Coalescer.Batches)
		c.batchReq += float64(r.Coalescer.BatchRequests)
		c.timeoutFl += float64(r.Coalescer.TimeoutFlushes)
		c.dmcMerge += float64(r.Coalescer.FirstPhaseMerges)
		c.reqs += float64(r.Coalescer.Requests)
		c.lat += float64(r.Coalescer.RequestLatency)
		c.latN += float64(r.Coalescer.LatencySamples)
		c.crq += float64(r.Coalescer.CRQFillCycles)
		c.crqN += float64(r.Coalescer.CRQFills)
		c.alloc += float64(r.MSHR.Allocations)
		c.merged += float64(r.MSHR.MergedTargets)
		c.full += float64(r.MSHR.FullStalls)
		c.splits += float64(r.MSHR.SplitRequests)
	}
	n, nTP := len(acc.results), len(acc.twoPhaseFE)
	rep.set("sim.stall_share", ratio(c.stall, acc.coreCycles), n)
	rep.set("cache.llc_mpka", ratio(1000*c.llcMiss, c.l1Acc), n)
	rep.set("cache.l1_hit_ratio", ratio(c.l1Hit, c.l1Acc), n)
	rep.set("coalescer.batch_fill", ratio(c.batchReq, acc.batchSlots), nTP)
	rep.set("coalescer.timeout_flush_share", ratio(c.timeoutFl, c.batches), nTP)
	rep.set("coalescer.dmc_merge_ratio", ratio(c.dmcMerge, c.reqs), nTP)
	rep.set("coalescer.latency_cycles", ratio(c.lat, c.latN), nTP)
	rep.set("coalescer.crq_fill_cycles", ratio(c.crq, c.crqN), nTP)
	rep.set("mshr.merge_ratio", ratio(c.merged, c.alloc+c.merged), nTP)
	rep.set("mshr.full_stalls_pkr", ratio(1000*c.full, c.reqs), nTP)
	rep.set("mshr.splits", c.splits, nTP)
	rep.set("hmc.packet_bytes", ratio(c.pktBytes, c.mem), n)
	rep.set("hmc.bank_conflict_ratio", ratio(c.conflicts, c.mem), n)
	rep.set("hmc.conflict_wait_cycles", ratio(c.conflictWait, c.mem), n)
	rep.set("hmc.token_wait_cycles", ratio(c.tokenWait, c.mem), n)
	rep.set("hmc.bw_eff", ratio(c.requested, c.transferred), n)
}

// reportLayers runs the layer replays over every trace and sets the
// per-unit layer times.
func reportLayers(rep *report, tr *tracer, traces []replayedTrace) error {
	for _, t := range traces {
		if err := layerReplay(tr, t.cfg, t.accs); err != nil {
			return err
		}
	}
	per := func(span, count string) (float64, int) {
		ds := tr.durations(span)
		return ratio(float64(sum(ds)), float64(tr.count(count))), len(ds)
	}
	v, n := per("cache.replay", "cache.accesses")
	rep.set("cache.access_ns", v, n)
	v, n = per("sortnet.replay", "sortnet.windows")
	rep.set("sortnet.sort_ns", v, n)
	self := func(span string) (float64, int) {
		var total time.Duration
		ids := tr.ids(span)
		for _, id := range ids {
			total += tr.selfTime(id)
		}
		return ratio(float64(total), float64(tr.count(span+".requests"))), len(ids)
	}
	v, n = self("coalescer.replay")
	rep.set("coalescer.self_ns", v, n)
	v, n = self("frontend.warp_replay")
	rep.set("frontend.warp_self_ns", v, n)
	for _, m := range []struct{ metric, leaf string }{
		{"hmc.submit_ns", "hmc.submit"},
		{"membackend.ddr_submit_ns", "membackend.ddr_submit"},
		{"membackend.ideal_submit_ns", "membackend.ideal_submit"},
	} {
		d, k := tr.leafStats(m.leaf)
		rep.set(m.metric, ratio(float64(d), float64(k)), k)
	}
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean is the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
