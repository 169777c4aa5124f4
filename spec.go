package hmccoal

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"hmccoal/internal/cache"
	"hmccoal/internal/sim"
)

// This file is the distributed half of the sweep layer: a sweep grid as a
// serializable value. A SweepSpec plus a grid index is a pure description
// of one simulation job — benchmark trace, configuration, display name —
// identical on the coordinator and on every dsweep worker process, so a
// worker can reconstruct any job from the spec alone (traces are seeded
// and regenerate deterministically; nothing bulky crosses the wire). Both
// the in-process sweep path and the remote workers execute groups through
// the same compiled grid and runSpecGroup, which is what makes the
// distributed output byte-identical to -workers 1 by construction.

// SweepKind enumerates the distributable sweep grids.
type SweepKind string

// The sweep grids of the evaluation pipeline.
const (
	// SweepRunAll is the (benchmark × {3 architectures, payload analysis})
	// grid behind Figures 8–13 and 15.
	SweepRunAll SweepKind = "runall"
	// SweepFig14 is the (benchmark × timeout) grid of Figure 14.
	SweepFig14 SweepKind = "fig14"
	// SweepTimeout is one benchmark's timeout sweep.
	SweepTimeout SweepKind = "timeout"
	// SweepMSHR is one benchmark's MSHR-entries sweep.
	SweepMSHR SweepKind = "mshr"
	// SweepSpeedup is the (benchmark × {MSHR-based, two-phase}) grid of
	// the backend-attributed speedup study.
	SweepSpeedup SweepKind = "speedup"
	// SweepFault is one benchmark's (error rate × 3 architectures) grid.
	SweepFault SweepKind = "fault"
	// SweepStride is the (stride microbenchmark × {front-end × scheduler})
	// grid of the front-end efficiency ladder.
	SweepStride SweepKind = "stride"
)

// SweepSpec is the serializable description of one sweep grid. It is the
// unit the dsweep wire protocol ships: JSON-encoded, it travels inside
// every job message, and (spec, index) fully determines a job on any
// process — same trace generator seed, same configuration, same batch
// lane width.
type SweepSpec struct {
	Kind   SweepKind   `json:"kind"`
	Params TraceParams `json:"params"`
	// Bench is the single benchmark of SweepTimeout/SweepMSHR/SweepFault
	// grids; Benches the benchmark axis of multi-benchmark grids. They
	// are carried explicitly so a worker never depends on its own
	// binary's benchmark list ordering.
	Bench    string    `json:"bench,omitempty"`
	Benches  []string  `json:"benches,omitempty"`
	Timeouts []uint64  `json:"timeouts,omitempty"`
	Entries  []int     `json:"entries,omitempty"`
	BERs     []float64 `json:"bers,omitempty"`
	// Seed is the fault-injection seed of SweepFault grids.
	Seed uint64 `json:"seed,omitempty"`
	// Checks enables the runtime invariant checker in every job.
	Checks bool `json:"checks,omitempty"`
	// Backend names the memory backend ("" is the default HMC).
	Backend string `json:"backend,omitempty"`
	// Frontend and Sched name the coalescing front-end and its issue
	// policy ("" are the two-phase / FR-FCFS defaults). SweepStride grids
	// sweep both axes themselves and ignore these.
	Frontend string `json:"frontend,omitempty"`
	Sched    string `json:"sched,omitempty"`
	// Batch is the lockstep lane width each executor runs its groups on.
	Batch int `json:"batch,omitempty"`
}

// Dispatcher ships sweep job groups to external executors. RunGroup
// blocks until the group completes somewhere and returns one JSON-encoded
// SweepCell per index, in index order; the dsweep coordinator
// (internal/dsweep.Coordinator) is the canonical implementation, handing
// groups to worker processes with work-stealing and crash requeue.
type Dispatcher interface {
	RunGroup(ctx context.Context, spec []byte, idxs []int) ([]json.RawMessage, error)
}

// SweepCell is the universal per-job result of a sweep grid: the
// simulation Result, or the payload analysis for the RunAll grid's
// analysis jobs. It is what crosses the dsweep wire and what checkpoint
// lines of the RunAll grid store.
type SweepCell struct {
	Res Result          `json:"res"`
	Pay PayloadAnalysis `json:"pay"`
}

// sweepGrid is a compiled SweepSpec: the validated job count plus
// non-failing per-job accessors. cfg and name must only be called for
// non-payload indices.
type sweepGrid struct {
	base     Config
	benches  []string
	perBench int // jobs per benchmark; job i runs benchmark i/perBench
	cfg      func(i int) Config
	name     func(i int) string
	payload  func(i int) bool // nil: no payload-analysis jobs in this grid
}

// n is the grid's total job count.
func (g *sweepGrid) n() int { return len(g.benches) * g.perBench }

func (g *sweepGrid) isPayload(i int) bool { return g.payload != nil && g.payload(i) }

// compile validates a spec and returns its grid. The switch below is the
// single definition of every grid's geometry — the local drivers and the
// remote workers both run jobs through it, so their configurations cannot
// diverge.
func (s SweepSpec) compile() (*sweepGrid, error) {
	backend, err := ParseBackend(s.Backend)
	if err != nil {
		return nil, fmt.Errorf("hmccoal: sweep spec: %w", err)
	}
	fe, err := ParseFrontend(s.Frontend)
	if err != nil {
		return nil, fmt.Errorf("hmccoal: sweep spec: %w", err)
	}
	sched, err := ParseSched(s.Sched)
	if err != nil {
		return nil, fmt.Errorf("hmccoal: sweep spec: %w", err)
	}
	base := DefaultConfig()
	base.Checks = s.Checks
	base.Backend = backend
	base.Frontend = fe
	base.Sched = sched

	g := &sweepGrid{base: base}
	one := func() []string { return []string{s.Bench} }
	switch s.Kind {
	case SweepRunAll:
		g.benches, g.perBench = s.Benches, runAllKinds
		g.cfg = func(i int) Config {
			cfg := base
			cfg.Mode = runAllModes[i%runAllKinds]
			return cfg
		}
		g.name = func(i int) string {
			return fmt.Sprintf("%s/%v", g.benches[i/runAllKinds], runAllModes[i%runAllKinds])
		}
		g.payload = func(i int) bool { return i%runAllKinds == runAllKinds-1 }
	case SweepFig14, SweepTimeout:
		if s.Kind == SweepFig14 {
			g.benches = s.Benches
		} else {
			g.benches = one()
		}
		g.perBench = len(s.Timeouts)
		g.cfg = func(i int) Config {
			cfg := base
			cfg.Coalescer.TimeoutCycles = s.Timeouts[i%g.perBench]
			return cfg
		}
		g.name = func(i int) string {
			return fmt.Sprintf("%s/T=%d", g.benches[i/g.perBench], s.Timeouts[i%g.perBench])
		}
	case SweepMSHR:
		g.benches, g.perBench = one(), len(s.Entries)
		g.cfg = func(i int) Config {
			cfg := base
			cfg.Coalescer.MSHR.Entries = s.Entries[i%g.perBench]
			return cfg
		}
		g.name = func(i int) string {
			return fmt.Sprintf("%s/mshr=%d", g.benches[i/g.perBench], s.Entries[i%g.perBench])
		}
	case SweepSpeedup:
		g.benches, g.perBench = s.Benches, len(speedupModes)
		g.cfg = func(i int) Config {
			cfg := base
			cfg.Mode = speedupModes[i%g.perBench]
			return cfg
		}
		g.name = func(i int) string {
			return fmt.Sprintf("%s/%v", g.benches[i/g.perBench], speedupModes[i%g.perBench])
		}
	case SweepFault:
		nModes := len(runAllModes)
		g.benches, g.perBench = one(), len(s.BERs)*nModes
		g.cfg = func(i int) Config {
			cfg := base
			cfg.HMC.Fault.Seed = s.Seed
			cfg.HMC.Fault.BER = s.BERs[(i%g.perBench)/nModes]
			cfg.Mode = runAllModes[i%nModes]
			return cfg
		}
		g.name = func(i int) string {
			return fmt.Sprintf("%s/ber=%g/%v", g.benches[i/g.perBench], s.BERs[(i%g.perBench)/nModes], runAllModes[i%nModes])
		}
	case SweepStride:
		g.benches, g.perBench = s.Benches, len(strideCombos)
		g.cfg = func(i int) Config {
			cfg := base
			c := strideCombos[i%g.perBench]
			cfg.Frontend, cfg.Sched = c.fe, c.sched
			return cfg
		}
		g.name = func(i int) string {
			c := strideCombos[i%g.perBench]
			return fmt.Sprintf("%s/%v/%v", g.benches[i/g.perBench], c.fe, c.sched)
		}
	default:
		return nil, fmt.Errorf("hmccoal: sweep spec: unknown kind %q", s.Kind)
	}
	if len(g.benches) == 0 || g.perBench == 0 {
		return nil, fmt.Errorf("hmccoal: sweep spec: empty %s grid", s.Kind)
	}
	for _, b := range g.benches {
		if b == "" {
			return nil, fmt.Errorf("hmccoal: sweep spec: empty benchmark name in %s grid", s.Kind)
		}
	}
	return g, nil
}

// batchLanes is the lockstep lane width for a group of n jobs under a
// requested batch width.
func batchLanes(batch, n int) int {
	if batch < 1 {
		batch = 1
	}
	if batch > n {
		batch = n
	}
	return batch
}

// runSpecGroup executes grid indices idxs of a compiled grid: simulation
// jobs run together on batch lockstep lanes, payload-analysis jobs on one
// shared (reset per analysis) hierarchy, and benchmark b's trace comes
// from trace(b) — the local refcounted table or a worker's cache. One
// cell per index, in index order.
func runSpecGroup(g *sweepGrid, batch int, idxs []int, trace func(b int) ([]Access, *TraceIndex, error)) ([]SweepCell, error) {
	out := make([]SweepCell, len(idxs))
	var jobs []BatchJob
	var slot []int
	var payHier *cache.Hierarchy
	for k, i := range idxs {
		accs, idx, err := trace(i / g.perBench)
		if err != nil {
			return nil, err
		}
		if g.isPayload(i) {
			if payHier == nil {
				if payHier, err = cache.NewHierarchy(g.base.Hierarchy); err != nil {
					return nil, err
				}
			}
			pay, err := sim.AnalyzePayloadWith(payHier, accs, g.base.Coalescer.Width)
			if err != nil {
				return nil, err
			}
			out[k] = SweepCell{Pay: pay}
			continue
		}
		jobs = append(jobs, BatchJob{Name: g.name(i), Cfg: g.cfg(i), Accs: accs, Index: idx})
		slot = append(slot, k)
	}
	res, err := RunBatch(jobs, batchLanes(batch, len(jobs)))
	if err != nil {
		return nil, err
	}
	for k, r := range res {
		out[slot[k]].Res = r
	}
	return out, nil
}

// traceCacheEntries bounds a worker's resident traces: groups of one grid
// interleave a handful of benchmarks, and a few extra slots ride out the
// boundary between consecutive sweeps.
const traceCacheEntries = 6

// traceKey identifies one generated trace+index pair.
type traceKey struct {
	bench string
	p     TraceParams
	cpus  int
}

// TraceCacheStats counts a worker's trace-cache behavior across every
// group it ran: a hit is a group finding its benchmark's trace already
// resident (or being generated by a concurrent slot), a miss pays a full
// generation, and an eviction drops the oldest resident trace past the
// cache cap. The counters are monotonic over a SweepRunner's lifetime;
// the dsweep protocol ships them back with every result so the
// coordinator's Status() can show cache effectiveness per worker.
type TraceCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// traceCache shares generated traces across a worker's job groups (and
// its concurrent slots), evicting the oldest entry beyond the cap.
// Distinct benchmarks generate concurrently; same-benchmark callers
// serialize on the entry.
type traceCache struct {
	mu    sync.Mutex
	keys  []traceKey
	m     map[traceKey]*traceCacheEntry
	stats TraceCacheStats
}

type traceCacheEntry struct {
	mu    sync.Mutex
	accs  []Access
	idx   *TraceIndex
	err   error
	built bool
}

func (c *traceCache) get(bench string, p TraceParams, cpus int) ([]Access, *TraceIndex, error) {
	key := traceKey{bench: bench, p: p, cpus: cpus}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[traceKey]*traceCacheEntry)
	}
	e, ok := c.m[key]
	if !ok {
		c.stats.Misses++
		e = &traceCacheEntry{}
		c.m[key] = e
		c.keys = append(c.keys, key)
		if len(c.keys) > traceCacheEntries {
			c.stats.Evictions++
			delete(c.m, c.keys[0])
			c.keys = c.keys[1:]
		}
	} else {
		c.stats.Hits++
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.built {
		e.built = true
		e.accs, e.err = GenerateTrace(bench, p)
		if e.err == nil {
			e.idx, e.err = NewTraceIndex(e.accs, cpus)
		}
	}
	return e.accs, e.idx, e.err
}

// SweepRunner is the worker-side executor for distributed sweep groups:
// Run is the function a dsweep worker hands every job it pulls, and
// CacheStats exposes the trace cache's hit/miss/eviction counters for the
// Result protocol (dsweep.WorkOptions.CacheStats).
type SweepRunner struct {
	cache traceCache
}

// NewSweepRunner builds the worker-side executor. Run decodes the
// SweepSpec, regenerates the group's benchmark traces (cached across
// groups, so a sweep's repeat visits to one benchmark pay generation
// once), runs the simulation jobs on the spec's lockstep lanes and
// returns one JSON-encoded SweepCell per index. Errors are deterministic
// job failures; the coordinator fails the group rather than retrying them
// elsewhere.
func NewSweepRunner() *SweepRunner { return &SweepRunner{} }

// CacheStats snapshots the runner's trace-cache counters. Safe for
// concurrent use with Run.
func (r *SweepRunner) CacheStats() TraceCacheStats {
	r.cache.mu.Lock()
	defer r.cache.mu.Unlock()
	return r.cache.stats
}

// Run executes one sweep job group; it has the dsweep.GroupRunner shape.
func (r *SweepRunner) Run(ctx context.Context, rawSpec []byte, idxs []int) ([]json.RawMessage, error) {
	var spec SweepSpec
	if err := json.Unmarshal(rawSpec, &spec); err != nil {
		return nil, fmt.Errorf("hmccoal: sweep spec: %w", err)
	}
	g, err := spec.compile()
	if err != nil {
		return nil, err
	}
	for _, i := range idxs {
		if i < 0 || i >= g.n() {
			return nil, fmt.Errorf("hmccoal: job index %d outside the %d-job %s grid", i, g.n(), spec.Kind)
		}
	}
	cells, err := runSpecGroup(g, spec.Batch, idxs, func(b int) ([]Access, *TraceIndex, error) {
		return r.cache.get(g.benches[b], spec.Params, g.base.Hierarchy.CPUs)
	})
	if err != nil {
		return nil, err
	}
	raw := make([]json.RawMessage, len(cells))
	for k := range cells {
		if raw[k], err = json.Marshal(cells[k]); err != nil {
			return nil, fmt.Errorf("hmccoal: encode cell %d: %w", idxs[k], err)
		}
	}
	return raw, nil
}
