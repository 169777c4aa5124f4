package frontend

import (
	"fmt"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/invariant"
	"hmccoal/internal/mshr"
)

// warp is the GPU-style coalescing unit: instead of one shared input
// buffer feeding a sorting network, each request lane (CPU) keeps an open
// warp buffer that closes when it reaches the coalescing width or its
// timeout expires — the SIMT memory-access coalescing stage, where the
// lanes of a warp present their addresses together and the unit merges
// them at DRAM-block granularity in first-touch order, counting one burst
// per distinct block touched. There is no sorter and no bypass: merging
// is an associative block lookup, so a closed warp pays CompareCycles per
// distinct (block, type) group and MergeCycles per absorbed request, and
// the whole warp becomes ready when its grouping cost has elapsed.
//
// Downstream of the warp buffers the unit shares the two-phase
// coalescer's second phase, coalescer.Stage: the same CRQ in front of the
// same dynamic MSHR file, issue-tick rules, span-level retry backoff,
// watchdog and conservation violations — so every figure renders from the
// same statistics shape and the fault-injection machinery works
// unchanged. It installs no admission policy: degraded mode is two-phase
// only.
type warp struct {
	coalescer.Stage

	cfg        coalescer.Config
	lanes      []warpLane
	linesBlock uint64
}

// warpLane is one lane's open warp buffer.
type warpLane struct {
	reqs  []wreq
	since uint64 // tick the oldest buffered request arrived
}

// wreq is one buffered request plus its arrival tick, for the
// per-request latency accounting.
type wreq struct {
	coalescer.Request
	pushTick uint64
}

// closeCause records what closed a warp, partitioning the flush counters
// the same way the two-phase coalescer's flushCause does.
type closeCause int

const (
	closeFull    closeCause = iota // warp reached the coalescing width
	closeTimeout                   // warp timeout expired
	closeFence                     // a memory fence forced the close
	closeDrain                     // end-of-run Drain forced the close
)

// newWarp builds the warp coalescing unit.
func newWarp(cfg Config, issue coalescer.IssueFunc, complete coalescer.CompleteFunc) (Frontend, error) {
	stage, err := coalescer.NewStage(cfg.Coalescer, cfg.Sched, issue, complete)
	if err != nil {
		return nil, err
	}
	lanes := cfg.Lanes
	if lanes < 1 {
		lanes = 1
	}
	return &warp{
		Stage:      stage,
		cfg:        cfg.Coalescer,
		lanes:      make([]warpLane, lanes),
		linesBlock: uint64(cfg.Coalescer.BlockBytes / cfg.Coalescer.LineBytes),
	}, nil
}

// timeout is the warp-close timeout; the warp unit uses the configured
// value directly (there is no sorter latency to adapt to).
func (w *warp) timeout() uint64 { return w.cfg.TimeoutCycles }

// Push presents one LLC request: it lands in its lane's open warp, which
// closes when it reaches the coalescing width.
func (w *warp) Push(now uint64, r coalescer.Request) {
	w.Advance(now)
	st := w.Counters()
	st.Requests++
	st.PayloadBytes += uint64(r.Payload)

	if !w.cfg.FirstPhase {
		// Conventional MHA: the miss goes straight at the MSHRs.
		w.Enqueue(now, coalescer.Packet{
			BaseLine: r.Line, Lines: 1, Write: r.Write,
			Targets: append(w.GetTargets(), mshr.Target{Line: r.Line, Token: r.Token, Payload: r.Payload}),
			Ready:   now, CPU: r.CPU, Critical: r.Critical,
		})
		w.Dispatch(now)
		return
	}

	l := &w.lanes[int(r.CPU)%len(w.lanes)]
	if len(l.reqs) == 0 {
		l.since = now
	}
	l.reqs = append(l.reqs, wreq{Request: r, pushTick: now})
	if len(l.reqs) >= w.cfg.Width {
		w.closeWarp(now, int(r.CPU)%len(w.lanes), closeFull)
		w.Dispatch(now)
	}
}

// Fence closes every open warp immediately, in ascending lane order.
func (w *warp) Fence(now uint64) {
	w.Advance(now)
	w.Counters().Fences++
	for i := range w.lanes {
		if len(w.lanes[i].reqs) > 0 {
			w.closeWarp(now, i, closeFence)
		}
	}
	w.Dispatch(now)
}

// Advance processes time up to now: releases due retries, delivers due
// responses and closes warps whose timeout expired.
func (w *warp) Advance(now uint64) {
	w.Settle(now)
	w.expireWarps(now)
	w.Deliver(now)
	w.Dispatch(now)
}

// expireWarps closes every warp whose timeout fell due, in (expiry tick,
// lane index) order so multi-lane expiries are deterministic.
func (w *warp) expireWarps(now uint64) {
	for {
		best, bestT := -1, uint64(0)
		for i := range w.lanes {
			l := &w.lanes[i]
			if len(l.reqs) == 0 {
				continue
			}
			if t := l.since + w.timeout(); t <= now && (best < 0 || t < bestT) {
				best, bestT = i, t
			}
		}
		if best < 0 {
			return
		}
		w.closeWarp(bestT, best, closeTimeout)
	}
}

// closeWarp runs one lane's buffered requests through block-granularity
// merging and queues the resulting packets. closeTick is when the warp
// closed; the packets become ready once the grouping cost has elapsed.
func (w *warp) closeWarp(closeTick uint64, lane int, cause closeCause) {
	l := &w.lanes[lane]
	batch := l.reqs
	l.reqs = l.reqs[:0]
	m := len(batch)
	if m == 0 {
		return
	}
	st := w.Counters()
	st.Batches++
	st.BatchRequests += uint64(m)
	switch cause {
	case closeFull:
		st.FullFlushes++
	case closeTimeout:
		st.TimeoutFlushes++
	case closeFence:
		st.FenceFlushes++
	case closeDrain:
		st.DrainFlushes++
	}

	// Burst counting: one group per distinct (block, type) pair, built in
	// first-touch order — the warp's lanes are compared associatively, so
	// unlike the two-phase DMC no sorting happens and discontiguous lines
	// of one block still share a burst.
	type wgroup struct {
		block    uint64
		write    bool
		minLine  uint64
		maxLine  uint64
		cpu      uint8
		critical bool
		targets  []mshr.Target
	}
	var groups []wgroup
	var cost uint64
	for i := range batch {
		r := &batch[i]
		block := r.Line / w.linesBlock
		gi := -1
		for j := range groups {
			if groups[j].block == block && groups[j].write == r.Write {
				gi = j
				break
			}
		}
		if gi < 0 {
			cost += w.cfg.CompareCycles
			groups = append(groups, wgroup{
				block: block, write: r.Write,
				minLine: r.Line, maxLine: r.Line,
				cpu: r.CPU, critical: r.Critical,
				targets: append(w.GetTargets(), mshr.Target{Line: r.Line, Token: r.Token, Payload: r.Payload}),
			})
			continue
		}
		g := &groups[gi]
		cost += w.cfg.MergeCycles
		st.FirstPhaseMerges++
		if r.Line < g.minLine {
			g.minLine = r.Line
		}
		if r.Line > g.maxLine {
			g.maxLine = r.Line
		}
		g.critical = g.critical || r.Critical
		g.targets = append(g.targets, mshr.Target{Line: r.Line, Token: r.Token, Payload: r.Payload})
	}
	st.DMCCycles += cost
	done := closeTick + cost

	// Per-request latency: buffer wait + grouping, ending when the warp's
	// packets reach the queue.
	for i := range batch {
		st.RequestLatency += done - batch[i].pushTick
	}
	st.LatencySamples += uint64(m)

	// Each group's span stays inside one block; split it into legal HMC
	// packet sizes (largest-first, capped by the MSHR span limit). A chunk
	// nobody waits on — a hole in the span — fetches nothing and is
	// skipped.
	for gi := range groups {
		g := &groups[gi]
		base := g.minLine
		length := int(g.maxLine-g.minLine) + 1
		single := true
		for length > 0 {
			size := 1
			switch {
			case length >= 4:
				size = 4
			case length >= 2:
				size = 2
			}
			if size > mshr.MaxLines {
				size = mshr.MaxLines
			}
			if single && size == length {
				// Common case: the whole group is one legal packet — hand
				// the target slice over without copying.
				w.Enqueue(done, coalescer.Packet{
					BaseLine: base, Lines: size, Write: g.write,
					Targets: g.targets, Ready: done, CPU: g.cpu, Critical: g.critical,
				})
				g.targets = nil
				break
			}
			single = false
			var targets []mshr.Target
			for _, t := range g.targets {
				if t.Line >= base && t.Line < base+uint64(size) {
					if targets == nil {
						targets = w.GetTargets()
					}
					targets = append(targets, t)
				}
			}
			if targets != nil {
				w.Enqueue(done, coalescer.Packet{
					BaseLine: base, Lines: size, Write: g.write,
					Targets: targets, Ready: done, CPU: g.cpu, Critical: g.critical,
				})
			}
			base += uint64(size)
			length -= size
		}
		if g.targets != nil {
			w.PutTargets(g.targets)
		}
	}
}

// NextEvent returns the earliest tick at which Advance makes progress.
func (w *warp) NextEvent() (uint64, bool) {
	next, _ := w.Stage.NextEvent()
	for i := range w.lanes {
		l := &w.lanes[i]
		if len(l.reqs) > 0 && l.since+w.timeout() < next {
			next = l.since + w.timeout()
		}
	}
	return next, next != ^uint64(0)
}

// Drain closes every open warp and runs the shared stage until idle.
func (w *warp) Drain(now uint64) (uint64, error) {
	w.Advance(now)
	for i := range w.lanes {
		if len(w.lanes[i].reqs) > 0 {
			w.closeWarp(now, i, closeDrain)
		}
	}
	return w.Stage.Drain(now)
}

// QueueDepths reports the total warp-buffered requests and the CRQ
// occupancy.
func (w *warp) QueueDepths() (pending, crq int) {
	for i := range w.lanes {
		pending += len(w.lanes[i].reqs)
	}
	return pending, w.CRQLen()
}

func (w *warp) DebugState() string {
	open := 0
	for i := range w.lanes {
		if len(w.lanes[i].reqs) > 0 {
			open++
		}
	}
	return fmt.Sprintf("%s openWarps=%d", w.Stage.DebugState(), open)
}

// CheckDrained audits the end-of-run conservation laws.
func (w *warp) CheckDrained(tick uint64) error {
	for i := range w.lanes {
		if n := len(w.lanes[i].reqs); n != 0 {
			return w.Record(invariant.Violatef(invariant.RuleQueueLeak, tick,
				w.DebugState(), "%d request(s) left in lane %d's warp after drain", n, i))
		}
	}
	return w.Stage.CheckDrained(tick)
}
