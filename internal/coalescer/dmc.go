package coalescer

import (
	"hmccoal/internal/mshr"
	"hmccoal/internal/trace"
)

// flushCause records what closed an input sequence, so the flush-rate
// statistics can distinguish timeout expiries from fence-forced drains.
type flushCause int

const (
	flushFull    flushCause = iota // sequence reached full width
	flushTimeout                   // input-buffer timeout expired
	flushFence                     // a memory fence forced the drain
	flushDrain                     // end-of-run Drain forced the drain
)

// flush closes the pending input sequence and runs it through the sorting
// pipeline and the DMC unit. now is the flush trigger tick; cause is what
// closed the sequence.
func (c *Coalescer) flush(now uint64, cause flushCause) {
	batch := c.pending
	// The buffer is reused for the next sequence; batch stays valid for the
	// rest of this flush because nothing can Push before it returns.
	c.pending = c.pending[:0]
	m := len(batch)
	if m == 0 {
		return
	}
	c.stats.Batches++
	c.stats.BatchRequests += uint64(m)
	switch cause {
	case flushFull:
		c.stats.FullFlushes++
	case flushTimeout:
		c.stats.TimeoutFlushes++
	case flushFence:
		c.stats.FenceFlushes++
	case flushDrain:
		c.stats.DrainFlushes++
	}

	// The sequence enters the sorter when its first stage is free; the
	// pipelined network accepts a new sequence every initiation interval.
	enter := now
	if c.sortFree > enter {
		enter = c.sortFree
	}
	c.sortFree = enter + c.pipe.IntervalCycles()

	// Sort by the extended 54-bit key (§3.4): Type bit above the address
	// separates loads from stores; invalid padding sinks to the tail. The
	// Width-sized working arrays are reused across flushes; stale entries
	// past m carry pad keys and sink below every real request.
	keys := c.flushKeys
	for i, r := range batch {
		kind := trace.Load
		if r.Write {
			kind = trace.Store
		}
		keys[i] = uint64(trace.MakeKey(r.Line, kind))
	}
	padded := c.flushPad
	copy(padded, batch)
	c.net.SortPrefix(keys, m, uint64(trace.InvalidKey()), c.padSwap)
	sorted := padded[:m]
	sortedAt := enter + c.pipe.LatencyCycles(m)
	c.stats.SortCycles += c.pipe.LatencyCycles(m)

	// First-phase coalescing (§3.5): the DMC takes the smallest request as
	// the base, compares it with the following requests in parallel
	// (CompareCycles per group) and merges every identical/contiguous
	// same-type request (MergeCycles each) until the packet would exceed
	// the maximum HMC request or cross a block boundary.
	var cost uint64
	var chunks [maxChunks]chunk
	i := 0
	for i < m {
		base := sorted[i]
		blockStart := base.Line / c.linesBlock * c.linesBlock
		end := base.Line + 1
		targets := append(c.GetTargets(), mshr.Target{Line: base.Line, Token: base.Token, Payload: base.Payload})
		cost += c.cfg.CompareCycles
		critical := base.Critical
		j := i + 1
		for j < m && sorted[j].Write == base.Write {
			ln := sorted[j].Line
			if ln >= end {
				extendable := ln == end &&
					ln < blockStart+c.linesBlock &&
					end-base.Line < uint64(mshr.MaxLines)
				if !extendable {
					break
				}
				end = ln + 1
			}
			cost += c.cfg.MergeCycles
			c.stats.FirstPhaseMerges++
			critical = critical || sorted[j].Critical
			targets = append(targets, mshr.Target{Line: ln, Token: sorted[j].Token, Payload: sorted[j].Payload})
			j++
		}
		ready := sortedAt + cost
		nChunks := splitPacket(base.Line, int(end-base.Line), &chunks)
		if nChunks == 1 {
			// Common case: the whole group is one legal packet — hand the
			// target slice over without copying.
			c.admit(ready, Packet{
				BaseLine: chunks[0].base, Lines: chunks[0].len, Write: base.Write,
				Targets: targets, Ready: ready, CPU: base.CPU, Critical: critical,
			})
		} else {
			for ci := 0; ci < nChunks; ci++ {
				ch := chunks[ci]
				pkt := Packet{BaseLine: ch.base, Lines: ch.len, Write: base.Write, Ready: ready,
					Targets: c.GetTargets(), CPU: base.CPU, Critical: critical}
				for _, t := range targets {
					if t.Line >= ch.base && t.Line < ch.base+uint64(ch.len) {
						pkt.Targets = append(pkt.Targets, t)
					}
				}
				c.admit(ready, pkt)
			}
			c.PutTargets(targets)
		}
		i = j
	}
	c.stats.DMCCycles += cost
	c.adaptTimeout(c.pipe.LatencyCycles(m) + cost)

	// Per-request coalescer latency (Figure 14): input-buffer wait plus
	// sorting plus DMC processing, ending when the packet reaches the CRQ.
	done := sortedAt + cost
	for _, r := range batch {
		c.stats.RequestLatency += done - r.pushTick
	}
	c.stats.LatencySamples += uint64(m)

	c.Dispatch(now)
}

type chunk struct {
	base uint64
	len  int
}

// maxChunks bounds splitPacket's output: a DMC group spans at most
// mshr.MaxLines (4) lines, which splits into at most 2+1 chunks.
const maxChunks = 3

// splitPacket breaks a contiguous line run into legal HMC packet sizes
// (4, 2 or 1 cache lines → 256/128/64 B), filling out and returning the
// chunk count.
func splitPacket(base uint64, length int, out *[maxChunks]chunk) int {
	n := 0
	for length > 0 {
		size := 1
		switch {
		case length >= 4:
			size = 4
		case length >= 2:
			size = 2
		}
		out[n] = chunk{base: base, len: size}
		n++
		base += uint64(size)
		length -= size
	}
	return n
}

// admit is the coalescer's packet-admission policy on its stage, applied
// to every packet it queues — released retries included. In degraded mode
// the DMC caps packet size at one cache line: a multi-line packet is split
// into single-line packets before queuing, trading the coalescing win for
// a smaller retransmission unit on the errored link.
func (c *Coalescer) admit(now uint64, p Packet) {
	if !c.degraded || p.Lines <= 1 {
		c.Enqueue(now, p)
		return
	}
	c.stats.DegradedSplits++
	for ln := p.BaseLine; ln < p.BaseLine+uint64(p.Lines); ln++ {
		var targets []mshr.Target
		for _, t := range p.Targets {
			if t.Line == ln {
				if targets == nil {
					targets = c.GetTargets()
				}
				targets = append(targets, t)
			}
		}
		if targets == nil {
			continue // no waiter on this line: nothing to fetch
		}
		c.Enqueue(now, Packet{
			BaseLine: ln, Lines: 1, Write: p.Write, Targets: targets,
			Ready: p.Ready, attempt: p.attempt, CPU: p.CPU, Critical: p.Critical,
		})
	}
	c.PutTargets(p.Targets)
}
