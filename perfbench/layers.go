package main

import (
	"fmt"
	"time"

	"hmccoal"
	"hmccoal/internal/cache"
	"hmccoal/internal/coalescer"
	"hmccoal/internal/frontend"
	"hmccoal/internal/hmc"
	"hmccoal/internal/membackend"
	"hmccoal/internal/mshr"
	"hmccoal/internal/sim"
	"hmccoal/internal/sortnet"
)

// The layer replays feed one workload trace through each layer alone,
// calling only the layer's public functions, to price that layer on the
// workload's own stream: the cache hierarchy on the accesses, the sorting
// network on 16-wide windows of the LLC miss lines, and each front-end on
// the miss stream with each memory device behind its issue callback. They
// give a layer's cost per unit of its own work, not its share of a full
// run.

// missAt is one LLC miss of the cache replay with the tick it left the
// hierarchy.
type missAt struct {
	tick uint64
	m    cache.Miss
}

// layerReplay runs every layer replay over one trace.
func layerReplay(tr *tracer, cfg hmccoal.Config, accs []hmccoal.Access) error {
	// A System resolves the mode-dependent coalescer settings the
	// simulator itself would use.
	cfg.Mode = hmccoal.ModeTwoPhase
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		return err
	}
	cfg = sys.Config()

	misses, err := cacheReplay(tr, cfg.Hierarchy, accs)
	if err != nil {
		return err
	}
	if err := sortReplay(tr, cfg.Coalescer.Width, misses); err != nil {
		return err
	}
	for _, fe := range []struct {
		kind hmccoal.FrontendKind
		name string
	}{{hmccoal.FrontendTwoPhase, "coalescer.replay"}, {hmccoal.FrontendWarp, "frontend.warp_replay"}} {
		for _, be := range []struct {
			kind hmccoal.BackendKind
			name string
		}{{hmccoal.BackendHMC, "hmc.submit"}, {hmccoal.BackendDDR, "membackend.ddr_submit"}, {hmccoal.BackendIdeal, "membackend.ideal_submit"}} {
			if err := frontendReplay(tr, cfg, fe.kind, fe.name, be.kind, be.name, misses); err != nil {
				return fmt.Errorf("%s over %v: %w", fe.name, be.kind, err)
			}
		}
	}
	return nil
}

// cacheReplay times Hierarchy.Access over the whole trace on a cold
// hierarchy and returns the LLC miss stream it produced.
func cacheReplay(tr *tracer, hc cache.HierarchyConfig, accs []hmccoal.Access) ([]missAt, error) {
	h, err := cache.NewHierarchy(hc)
	if err != nil {
		return nil, err
	}
	out := make([]missAt, 0, len(accs)/4)
	sp := tr.begin("cache.replay", -1)
	for _, a := range accs {
		_, ms, err := h.Access(a)
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		for _, m := range ms {
			out = append(out, missAt{tick: a.Tick, m: m})
		}
	}
	tr.end(sp)
	tr.add("cache.accesses", len(accs))
	return out, nil
}

// sortReplay times Network.Sort over consecutive full windows of the miss
// lines.
func sortReplay(tr *tracer, width int, misses []missAt) error {
	net, err := sortnet.New(width)
	if err != nil {
		return err
	}
	keys := make([]uint64, width)
	windows := len(misses) / width
	sp := tr.begin("sortnet.replay", -1)
	for w := 0; w < windows; w++ {
		for k := range keys {
			keys[k] = misses[w*width+k].m.Line
		}
		net.Sort(keys, nil)
	}
	tr.end(sp)
	tr.add("sortnet.windows", windows)
	return nil
}

// frontendReplay pushes the miss stream through a fresh front-end of kind
// fe whose issue callback submits every packet to a fresh device of kind
// be. Each SubmitPacket is timed as a leaf span named beName under the
// replay span, so the replay's self time is the front-end's own work.
func frontendReplay(tr *tracer, cfg hmccoal.Config, fe hmccoal.FrontendKind, feName string, be hmccoal.BackendKind, beName string, misses []missAt) error {
	dev, err := membackend.New(be, cfg.HMC)
	if err != nil {
		return err
	}
	lineBytes := uint64(cfg.Coalescer.LineBytes)
	var (
		submitErr error
		submitDur time.Duration
		submits   int
	)
	issue := func(tick uint64, e *mshr.Entry) coalescer.IssueResult {
		packet := uint32(e.Lines()) * cfg.Coalescer.LineBytes
		requested := min(uint32(e.Payload()), packet)
		t0 := time.Now()
		comp, err := dev.SubmitPacket(tick, hmc.Request{
			Addr:           e.BaseLine() * lineBytes,
			PacketBytes:    packet,
			RequestedBytes: requested,
			Write:          e.Write(),
		})
		submitDur += time.Since(t0)
		submits++
		if err != nil {
			if submitErr == nil {
				submitErr = err
			}
			return coalescer.IssueResult{Done: tick}
		}
		return coalescer.IssueResult{Done: comp.Done, Fault: comp.Poisoned, Dropped: comp.Dropped, Retries: comp.Retries}
	}
	f, err := frontend.New(frontend.Config{
		Kind:      fe,
		Sched:     hmccoal.SchedFRFCFS,
		Lanes:     cfg.Hierarchy.CPUs,
		Coalescer: cfg.Coalescer,
	}, issue, func(uint64, []mshr.Sub, bool) {})
	if err != nil {
		return err
	}
	sp := tr.begin(feName, -1)
	var last uint64
	for i, m := range misses {
		f.Advance(m.tick)
		f.Push(m.tick, coalescer.Request{
			Line:     m.m.Line,
			Write:    m.m.Write,
			Payload:  m.m.Payload,
			Token:    uint64(i),
			CPU:      m.m.CPU,
			Critical: !m.m.WriteBack && !m.m.Write,
		})
		last = m.tick
	}
	_, err = f.Drain(last)
	tr.leaf(sp, beName, submitDur, submits)
	tr.end(sp)
	tr.add(feName+".requests", len(misses))
	if err != nil {
		return err
	}
	if err := f.Err(); err != nil {
		return err
	}
	return submitErr
}
