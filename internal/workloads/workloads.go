// Package workloads generates synthetic memory traces reproducing the
// access-pattern *shape* of the paper's 12 evaluation benchmarks: SG,
// STREAM, HPCG, SSCA2, BOTS (SparseLU, Sort, Health) and NAS-PB (FT, EP,
// SP, LU, CG).
//
// The original evaluation ran the real benchmarks on the RISC-V Spike
// simulator and traced the LLC. That substrate is replaced here (see
// DESIGN.md): what the coalescer sees is only the spatial/temporal
// structure of the miss stream, so each generator is built from the
// benchmark's dominant loop structure — burst length (how many consecutive
// bytes a core touches back-to-back), request payload sizes, the
// sequential/random mix, store ratio and compute think-time. Burst length
// is the property that governs coalescability: FT's transpose copies whole
// 256 B groups, so its misses arrive as runs of adjacent lines, while
// SSCA2's edge chasing emits isolated single-line misses.
package workloads

import (
	"fmt"
	"math/rand"

	"hmccoal/internal/trace"
)

// Params scales a generated trace.
type Params struct {
	// CPUs is the number of cores generating accesses (paper: 12).
	CPUs int
	// OpsPerCPU is the approximate number of memory accesses per core at
	// weight 1.0; generators scale it by their relative traffic volume.
	OpsPerCPU int
	// Seed makes the trace deterministic.
	Seed int64
	// ThinkScale multiplies every generator's compute think time; 0 means
	// 1.0 (the calibrated balance). Below 1 pushes the system toward
	// memory saturation, above 1 toward compute-bound operation. It must
	// lie in [0, 1e6]: negative, NaN and infinite scales are rejected.
	ThinkScale float64
}

// DefaultParams returns the paper's 12-CPU setup at a laptop-scale volume.
func DefaultParams() Params {
	return Params{CPUs: 12, OpsPerCPU: 20000, Seed: 1}
}

// maxThinkScale bounds Params.ThinkScale far above any useful setting. At
// this scale a core's clock overflows uint64 only after about 1e9 think
// phases, a trace far larger than memory.
const maxThinkScale = 1e6

func (p Params) validate() error {
	if p.CPUs <= 0 || p.CPUs > 256 {
		return fmt.Errorf("workloads: CPUs %d out of range", p.CPUs)
	}
	if p.OpsPerCPU <= 0 {
		return fmt.Errorf("workloads: OpsPerCPU %d must be positive", p.OpsPerCPU)
	}
	// build merges per-core streams that must each be in tick order, so
	// think time may never move a core's clock backwards. A negative, NaN
	// or infinite scale makes the float-to-uint64 conversion in core.think
	// implementation-defined.
	if !(p.ThinkScale >= 0 && p.ThinkScale <= maxThinkScale) {
		return fmt.Errorf("workloads: ThinkScale %v out of range [0, %g]", p.ThinkScale, float64(maxThinkScale))
	}
	return nil
}

// Generator produces the access trace of one benchmark.
type Generator interface {
	// Name is the benchmark's short name as used in the paper's figures.
	Name() string
	// Description summarizes the access pattern being modeled.
	Description() string
	// Generate builds the interleaved multi-core trace. Accesses are
	// ordered by Tick, then by CPU, then by each core's program order; the
	// per-core streams are generated in tick order and merged, not sorted.
	Generate(p Params) ([]trace.Access, error)
}

// All returns the 12 paper benchmarks in figure order.
func All() []Generator {
	return []Generator{
		sgGen{}, hpcgGen{}, ssca2Gen{}, streamGen{},
		sparseLUGen{}, sortGen{}, healthGen{},
		ftGen{}, epGen{}, spGen{}, luGen{}, cgGen{},
	}
}

// Names returns the benchmark names in figure order.
func Names() []string {
	gens := All()
	names := make([]string, len(gens))
	for i, g := range gens {
		names[i] = g.Name()
	}
	return names
}

// ByName finds a generator by its (case-sensitive) benchmark name. The
// stride-ladder microbenchmarks (StrideLadder) resolve here too, without
// being part of All()'s figure grid.
func ByName(name string) (Generator, bool) {
	for _, g := range All() {
		if g.Name() == name {
			return g, true
		}
	}
	for _, g := range StrideLadder() {
		if g.Name() == name {
			return g, true
		}
	}
	return nil, false
}

// core builds one CPU's access stream.
type core struct {
	accs       []trace.Access
	tick       uint64
	cpu        uint8
	rng        *rand.Rand
	thinkScale float64
}

// access emits one operation and advances the core's clock by gap cycles.
func (c *core) access(addr uint64, size uint32, kind trace.Kind, gap uint64) {
	c.accs = append(c.accs, trace.Access{
		Addr: addr, Size: size, Kind: kind, CPU: c.cpu, Tick: c.tick,
	})
	c.tick += gap
}

// burst emits total bytes as back-to-back accesses of `unit` bytes starting
// at base — the bulk-copy/vector-loop shape that produces adjacent-line
// miss runs. The out-of-order window dispatches the whole burst together,
// so every access carries the same tick; the issue cost (gap per access)
// is charged after the burst.
func (c *core) burst(base uint64, total, unit uint32, kind trace.Kind, gap uint64) {
	n := uint64(0)
	for off := uint32(0); off < total; off += unit {
		sz := unit
		if off+sz > total {
			sz = total - off
		}
		c.access(base+uint64(off), sz, kind, 0)
		n++
	}
	c.tick += gap * n
}

// think advances the core's clock without memory activity. The actual
// span is jittered uniformly in [cycles/2, 3·cycles/2): real task and loop
// bodies vary, and the jitter keeps the cores from phase-locking into
// all-saturated or all-idle memory regimes.
func (c *core) think(cycles uint64) {
	if cycles == 0 {
		return
	}
	span := cycles/2 + uint64(c.rng.Int63n(int64(cycles)))
	c.tick += uint64(float64(span) * c.thinkScale)
}

// build runs fn once per CPU and merges the per-core streams into one
// trace ordered by (Tick, CPU), each core's accesses keeping their program
// order. The cores append one after another into a shared slab; a core's
// clock only moves forward, so each core's stretch of the slab is already
// in tick order and a k-way merge replaces a sort.
func build(p Params, seedSalt int64, fn func(c *core, ops int)) ([]trace.Access, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	scale := p.ThinkScale
	if scale == 0 {
		scale = 1
	}
	var slab []trace.Access
	lens := make([]int, p.CPUs)
	for cpu := range lens {
		c := &core{
			accs:       slab,
			cpu:        uint8(cpu),
			rng:        rand.New(rand.NewSource(p.Seed ^ seedSalt ^ int64(cpu)*0x9E3779B9)),
			thinkScale: scale,
		}
		// Desynchronize the cores slightly, as real threads are.
		c.tick = uint64(c.rng.Intn(64))
		fn(c, p.OpsPerCPU)
		lens[cpu] = len(c.accs) - len(slab)
		slab = c.accs
		if cpu == 0 {
			// Every core runs the same loop, so the first core's length
			// predicts the others' to within a loop body or so: reserve
			// the whole slab once instead of regrowing it by quarters.
			grown := make([]trace.Access, len(slab), p.CPUs*(len(slab)+len(slab)/16))
			slab = grown[:copy(grown, slab)]
		}
	}
	streams := make([][]trace.Access, p.CPUs)
	rest := slab
	for cpu, n := range lens {
		streams[cpu], rest = rest[:n], rest[n:]
	}
	return mergeStreams(streams, len(slab)), nil
}

// mergeStreams is build's merge step. Tests swap in the sort it replaced, as
// the reference the merge must match exactly.
var mergeStreams = merge

// merge interleaves tick-ordered streams, indexed by CPU, into one slice of
// exactly n accesses. It repeatedly finds the stream with the smallest head
// and the runner-up, then copies the leader's whole run up to the
// runner-up's head: bursts share a tick, so runs are long and the scan over
// the streams is paid once per run, not once per access. Ties go to the
// lower CPU, which reproduces a stable sort on (Tick, CPU) exactly.
func merge(streams [][]trace.Access, n int) []trace.Access {
	out := make([]trace.Access, 0, n)
	for {
		first, second := -1, -1
		for i, s := range streams {
			switch {
			case len(s) == 0:
			case first < 0 || s[0].Tick < streams[first][0].Tick:
				first, second = i, first
			case second < 0 || s[0].Tick < streams[second][0].Tick:
				second = i
			}
		}
		if first < 0 {
			return out
		}
		s := streams[first]
		run := len(s)
		if second >= 0 {
			// The leader keeps ties with a higher CPU, yields them to a lower.
			limit, ties := streams[second][0].Tick, first < second
			run = 1
			for run < len(s) && (s[run].Tick < limit || ties && s[run].Tick == limit) {
				run++
			}
		}
		out = append(out, s[:run]...)
		streams[first] = s[run:]
	}
}

// Address-space layout: each logical array lives in its own 1 GiB region so
// generators cannot collide.
const region = 1 << 30

func regionBase(n int) uint64 { return uint64(n) * region }

// chunk gives CPU i an exclusive slice of a shared array, mirroring OpenMP
// static scheduling. Each core's slice is additionally skewed by 11 HMC
// blocks: a power-of-two partition stride would start every thread on the
// same vault and serialize the device, which no real heap layout does.
func chunk(base uint64, perCPU uint64, cpu uint8) uint64 {
	return base + uint64(cpu)*perCPU + uint64(cpu)*11*256
}
