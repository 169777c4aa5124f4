package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"hmccoal"
	"hmccoal/internal/jobserv"
	"hmccoal/internal/sim"
)

// The service workload drives the in-process hmcservd stack with an open
// loop: jobs are due at a fixed rate whatever the service does, as
// independent users would send them. The mix is mostly small single runs
// that vary benchmark, front-end and backend, plus small RunAll sweeps that
// go through the dsweep plane. Jobs are small enough that the daemon's
// admission and ledger and the dispatch wire, not simulator speed, decide
// latency.

// Scales of the service's jobs.
const (
	serviceCPUs      = 4
	serviceSingleOps = 100
	serviceSweepOps  = 20
)

// serviceMix returns the first n jobs of the seed's job sequence. Every
// serviceSweepEvery-th job is a RunAll sweep, the rest single runs. Both
// kinds are dealt from decks, seed-shuffled lists of every spec of the
// kind that are reshuffled when used up, so every stretch of the sequence
// holds each benchmark, front-end and backend about equally often and the
// totals of a run vary little with the seed. Tenants take turns at equal
// priority.
func serviceMix(seed int64, n int) []jobReq {
	rng := rand.New(rand.NewSource(seed))
	var singles, sweeps []jobserv.Spec
	for _, s := range serviceSpecs(seed) {
		if s.Kind == jobserv.KindSweep {
			sweeps = append(sweeps, s)
		} else {
			singles = append(singles, s)
		}
	}
	deal := func(deck []jobserv.Spec, next *int) jobserv.Spec {
		if *next%len(deck) == 0 {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		s := deck[*next%len(deck)]
		*next++
		return s
	}
	var nSingle, nSweep int
	out := make([]jobReq, n)
	for i := range out {
		var spec jobserv.Spec
		if i%serviceSweepEvery == serviceSweepEvery-1 {
			spec = deal(sweeps, &nSweep)
		} else {
			spec = deal(singles, &nSingle)
		}
		out[i] = jobReq{tenant: serviceTenants[i%len(serviceTenants)], spec: spec}
	}
	return out
}

// specKey identifies a job spec; equal keys must give equal results.
func specKey(s jobserv.Spec) string {
	raw, _ := json.Marshal(s) // a Spec of plain fields always encodes
	return string(raw)
}

// sweepGrid is the RunAll grid a service sweep job runs.
func sweepGrid(s jobserv.Spec) grid {
	be, _ := hmccoal.ParseBackend(s.Backend)
	return grid{kind: hmccoal.SweepRunAll, params: hmccoal.TraceParams{CPUs: s.CPUs, OpsPerCPU: s.Ops, Seed: s.Seed}, backend: be}
}

// reference is the in-process outcome of one service job spec: the
// result document the daemon must return byte for byte, and what the
// job simulated.
type reference struct {
	doc      []byte
	accesses int
	results  []hmccoal.Result       // every simulation of the job
	twoPhase []hmccoal.Result       // its two-phase-mode simulations
	runs     []hmccoal.BenchmarkRun // RunAll rows (sweep jobs)
}

// singleConfig mirrors the daemon's configuration of a single-run job.
func singleConfig(s jobserv.Spec) (hmccoal.Config, error) {
	cfg := hmccoal.DefaultConfig()
	cfg.Mode = hmccoal.ModeTwoPhase
	var err error
	if cfg.Backend, err = hmccoal.ParseBackend(s.Backend); err != nil {
		return cfg, err
	}
	if cfg.Frontend, err = hmccoal.ParseFrontend(s.Frontend); err != nil {
		return cfg, err
	}
	if cfg.Sched, err = hmccoal.ParseSched(s.Sched); err != nil {
		return cfg, err
	}
	cfg.Hierarchy.CPUs = s.CPUs
	return cfg, nil
}

// references computes the in-process outcome of every distinct spec in
// specs. With a tracer, single runs go through the simulator's entry
// points inside spans and sweeps replay their grid serially against the
// cells the stack dispatched; without one they take the plain public
// path. Either way each outcome is what the service must have returned.
func references(ctx context.Context, tr *tracer, st *stack, specs []jobserv.Spec, acc *simAcc, traces *[]replayedTrace) (map[string]*reference, int, int, error) {
	refs := map[string]*reference{}
	attempted, failed := 0, 0
	for _, s := range specs {
		key := specKey(s)
		if refs[key] != nil {
			continue
		}
		ref := &reference{}
		var payload map[string]any
		switch s.Kind {
		case jobserv.KindSingle:
			cfg, err := singleConfig(s)
			if err != nil {
				return nil, 0, 0, err
			}
			p := hmccoal.TraceParams{CPUs: s.CPUs, OpsPerCPU: s.Ops, Seed: s.Seed}
			root := tr.begin("replay single", -1)
			accs, idx, err := generate(tr, root, s.Bench, p, cfg.Hierarchy.CPUs)
			if err != nil {
				tr.end(root)
				return nil, 0, 0, err
			}
			var sys *sim.System
			var res hmccoal.Result
			if tr == nil {
				sys, err = sim.NewSystem(cfg)
				if err == nil {
					res, err = sys.Run(accs)
				}
			} else {
				sys, res, err = simulate(tr, root, nil, cfg, idx, acc)
				if err == nil {
					err = acc.twin(sys, idx, cfg, res)
				}
				*traces = append(*traces, replayedTrace{key: traceID(s.Bench, p), cfg: cfg, accs: accs})
			}
			tr.end(root)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("single %s: %w", s.Bench, err)
			}
			ref.accesses = len(accs)
			ref.results = []hmccoal.Result{res}
			ref.twoPhase = ref.results
			payload = map[string]any{"kind": jobserv.KindSingle, "result": res, "summary": res.Summary()}
		case jobserv.KindSweep:
			g := sweepGrid(s)
			out, err := g.run(ctx, hmccoal.SweepOptions{Workers: 1, Batch: s.Batch})
			if err != nil {
				return nil, 0, 0, err
			}
			if tr != nil {
				a, f, err := g.replay(tr, st.dispatched(g.key()), acc, traces)
				if err != nil {
					return nil, 0, 0, err
				}
				attempted += a
				failed += f
			}
			for _, b := range g.benches() {
				accs, err := hmccoal.GenerateTrace(b, g.params)
				if err != nil {
					return nil, 0, 0, err
				}
				ref.accesses += g.perBench() * len(accs)
			}
			ref.runs = out.runs
			ref.results = out.results
			for _, r := range out.runs {
				ref.twoPhase = append(ref.twoPhase, r.TwoPhase)
			}
			payload = map[string]any{
				"kind":     jobserv.KindSweep,
				"sweep":    s.Sweep,
				"runs":     out.runs,
				"figure8":  hmccoal.Figure8Table(out.runs),
				"figure15": hmccoal.Figure15Table(out.runs),
			}
		default:
			return nil, 0, 0, fmt.Errorf("no reference for %s jobs", s.Kind)
		}
		doc, err := json.Marshal(payload)
		if err != nil {
			return nil, 0, 0, err
		}
		ref.doc = doc
		refs[key] = ref
	}
	return refs, attempted, failed, nil
}

// checkService compares every completed job's result document with its
// reference (and, for the default seed, the reference with its stored
// digest). It returns the number of jobs attempted and failed; refused,
// failed and unfinished jobs fail.
func checkService(reqs []jobReq, load loadResult, refs map[string]*reference, seed int64) (attempted, failed int) {
	stored, haveDigests := storedServiceDigests(seed)
	for i, r := range reqs {
		attempted++
		ref := refs[specKey(r.spec)]
		switch {
		case !load.recs[i].ok || ref == nil:
			failed++
			load.recs[i].ok = false
		case string(load.docs[i]) != string(ref.doc):
			failed++
			load.recs[i].ok = false
		case haveDigests && stored[specKey(r.spec)] != digest(string(ref.doc)):
			failed++
			load.recs[i].ok = false
		}
	}
	return attempted, failed
}

// rung is one rate of the ladder and the jobs sent at it.
type rung struct {
	rate float64
	reqs []jobReq
	load loadResult
}

// ladder splits the seed's job sequence over the ladder's rates, each rung
// lasting an equal share of seconds.
func ladder(seed int64, seconds float64) []rung {
	n := make([]int, len(serviceRates))
	total := 0
	for i, r := range serviceRates {
		n[i] = int(math.Round(r * seconds / float64(len(serviceRates))))
		total += n[i]
	}
	mix := serviceMix(seed, total)
	out := make([]rung, len(serviceRates))
	for i, r := range serviceRates {
		out[i] = rung{rate: r, reqs: mix[:n[i]]}
		mix = mix[n[i]:]
	}
	return out
}

// warmUp completes one job of each kind, so the worker has connected and
// every code path has run once before timing.
func warmUp(st *stack, seed int64) error {
	reqs := []jobReq{
		{tenant: serviceTenants[0], spec: jobserv.Spec{Kind: jobserv.KindSingle, CPUs: serviceCPUs, Ops: serviceSingleOps, Seed: seed, Bench: hmccoal.Benchmarks()[0]}},
		{tenant: serviceTenants[1], spec: jobserv.Spec{Kind: jobserv.KindSweep, Sweep: "runall", CPUs: serviceCPUs, Ops: serviceSweepOps, Seed: seed, Batch: sweepBatch}},
	}
	load := st.openLoop(reqs, 0)
	for i := range reqs {
		if !load.recs[i].ok {
			return fmt.Errorf("warm-up job %d did not complete", i)
		}
	}
	return nil
}

// startService starts a stack and completes its warm-up jobs, returning
// it with the time that took. Every measured schedule runs on a stack of
// its own, so none inherits the jobs, heap and garbage-collector pacing
// of the ones before it.
func startService(scratch string, seed int64, tr *tracer) (*stack, float64, error) {
	start := time.Now()
	st, err := startStack(scratch, 1, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := warmUp(st, seed); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start).Seconds(), nil
}

// runOn sends one schedule to a freshly started untraced stack and stops
// the stack again.
func runOn(scratch string, seed int64, reqs []jobReq, rate float64) (loadResult, float64, error) {
	st, setup, err := startService(scratch, seed, nil)
	if err != nil {
		return loadResult{}, 0, err
	}
	load := st.openLoop(reqs, rate)
	return load, setup, st.close()
}

// measureService is the service's untraced run: bursts of
// serviceBurstJobs jobs sent at once, each to a freshly started stack,
// until the run time is spent. A burst keeps the service busy until it is
// done, so its completion rate is set by how fast the service serves
// rather than by a rate the generator offers. The set-up time is the
// median over the bursts' stack starts.
func measureService(ctx context.Context, rep *report, seconds float64, scratch string) error {
	mix := serviceMix(rep.seed, serviceMaxBursts*serviceBurstJobs)
	var setups, allocs []float64
	var bursts []loadResult
	begin := time.Now()
	for len(bursts) < serviceMinBursts || (len(bursts) < serviceMaxBursts && time.Since(begin).Seconds() < seconds) {
		reqs := mix[len(bursts)*serviceBurstJobs:][:serviceBurstJobs]
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		load, setup, err := runOn(scratch, rep.seed, reqs, 0)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		bursts = append(bursts, load)
		setups = append(setups, setup)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}

	var specs []jobserv.Spec
	for _, q := range mix[:len(bursts)*serviceBurstJobs] {
		specs = append(specs, q.spec)
	}
	refs, _, _, err := references(ctx, nil, nil, specs, nil, nil)
	if err != nil {
		return err
	}
	var mps, jps []float64
	var cycles uint64
	var twoPhase []hmccoal.Result
	var runs []hmccoal.BenchmarkRun
	for i, load := range bursts {
		reqs := mix[i*serviceBurstJobs:][:serviceBurstJobs]
		a, f := checkService(reqs, load, refs, rep.seed)
		rep.attempted += a
		rep.failed += f
		var accesses, jobs int
		var last time.Duration
		for k, q := range reqs {
			if !load.recs[k].ok {
				continue
			}
			ref := refs[specKey(q.spec)]
			jobs++
			accesses += ref.accesses
			last = max(last, load.recs[k].done)
			// The simulated metrics cover a fixed number of bursts, so
			// they do not depend on how many bursts the run had time for.
			if i < serviceMinBursts {
				for _, res := range ref.results {
					cycles += res.RuntimeCycles
				}
				twoPhase = append(twoPhase, ref.twoPhase...)
				runs = append(runs, ref.runs...)
			}
		}
		mps = append(mps, ratio(float64(accesses), last.Seconds())/1e6)
		jps = append(jps, ratio(float64(jobs), last.Seconds()))
		fmt.Fprintf(rep.out, "# burst %d: %d jobs done in %.3f s, %.4g Maccess/s\n", i+1, jobs, last.Seconds(), mps[i])
	}
	rep.set("setup_s", median(setups), len(setups))
	rep.set("maccess_per_s", median(mps), len(mps))
	rep.set("sustained_jps", median(jps), len(jps))
	rep.set("heap_alloc_mb", median(allocs), len(allocs))
	rep.set("sim_cycles", float64(cycles), 1)
	reportAccuracy(rep, twoPhase, runs)
	rep.set("peak_rss_mb", peakRSSMB(), 1)
	return nil
}

// traceService is the service's traced run. It runs the open-loop rate
// ladder, each rung on a fresh untraced stack, for the highest rate that
// meets the latency limit; then the reference rung's jobs once more on a
// traced stack; then the serial replay of every distinct job of that rung
// and the layer replays over its traces.
func traceService(ctx context.Context, rep *report, seconds float64, scratch string) error {
	rungs := ladder(rep.seed, seconds)
	var stats []rungStat
	var specs []jobserv.Spec
	for i, r := range rungs {
		load, _, err := runOn(scratch, rep.seed, r.reqs, r.rate)
		if err != nil {
			return err
		}
		rungs[i].load = load
		lat, _ := openLoopLatencies(load.recs)
		s := rungStat{rate: r.rate, p90: percentile(lat, 90), growing: backlogGrowing(load.outstanding, r.rate*serviceLimitMs/1000)}
		stats = append(stats, s)
		fmt.Fprintf(rep.out, "# rung %g jobs/s: %d jobs, p50 %.2f ms, p90 %.2f ms, backlog growing %v\n",
			r.rate, len(lat), percentile(lat, 50), s.p90, s.growing)
		for _, q := range r.reqs {
			specs = append(specs, q.spec)
		}
	}
	rep.set("load.sustained_jps", sustainedRate(stats, serviceLimitMs), len(stats))
	untracedRefs, _, _, err := references(ctx, nil, nil, specs, nil, nil)
	if err != nil {
		return err
	}
	for _, r := range rungs {
		a, f := checkService(r.reqs, r.load, untracedRefs, rep.seed)
		rep.attempted += a
		rep.failed += f
	}

	ref := rungs[serviceRefRung]
	tr := newTracer()
	st, _, err := startService(scratch, rep.seed, tr)
	if err != nil {
		return err
	}
	defer st.close()
	tr.clear()
	st.resetCounts()
	traced := st.openLoop(ref.reqs, ref.rate)
	latU, _ := openLoopLatencies(ref.load.recs)
	latT, _ := openLoopLatencies(traced.recs)
	rep.set("trace.overhead", ratio(median(latT), median(latU)), len(latT))
	reportStack(rep, st, traced, 1)
	if err := st.close(); err != nil {
		return err
	}

	specs = specs[:0]
	for _, q := range ref.reqs {
		specs = append(specs, q.spec)
	}
	acc := &simAcc{}
	var traces []replayedTrace
	refs, a, f, err := references(ctx, tr, st, specs, acc, &traces)
	if err != nil {
		return err
	}
	rep.attempted += a
	rep.failed += f
	a, f = checkService(ref.reqs, traced, refs, rep.seed)
	rep.attempted += a
	rep.failed += f
	reportSim(rep, tr, acc)
	return reportLayers(rep, tr, distinct(traces))
}
