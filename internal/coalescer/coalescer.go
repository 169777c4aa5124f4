// Package coalescer implements the paper's memory coalescer (§3): the unit
// between the shared LLC and the MSHRs that batches LLC misses, sorts them
// with a pipelined odd–even merge network, fuses adjacent requests into
// large HMC packets (first-phase coalescing, the DMC unit), queues the
// packets in the coalesced request queue (CRQ), and merges them against the
// dynamic MSHRs (second-phase coalescing) before they reach memory.
//
// The coalescer is tick-driven and single-threaded: the system simulator
// pushes LLC misses in non-decreasing tick order and the coalescer reports
// memory requests through the Issue callback and data returns through the
// Complete callback. All latency accounting (Figures 12–14) happens here.
//
// The second phase — CRQ, MSHRs, issue, retry and watchdog — is Stage,
// which the coalescer embeds and the warp front-end (internal/frontend)
// embeds too, so both front-ends issue memory through the same code.
package coalescer

import (
	"errors"
	"fmt"

	"hmccoal/internal/invariant"
	"hmccoal/internal/mshr"
	"hmccoal/internal/sortnet"
)

// ErrWatchdog marks the Drain diagnostic for responses that will never
// arrive (dropped on a faulty link). Callers that inject faults use
// errors.Is(err, ErrWatchdog) to tell this expected outcome apart from a
// conservation violation.
var ErrWatchdog = errors.New("watchdog")

// Config parameterizes the coalescer. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// Width is the sorting-network sequence width n (paper: 16).
	Width int
	// TimeoutCycles is how long a partially filled sequence may wait for
	// more LLC requests before it is force-flushed into the sorter
	// (paper §3.3; Figure 14 sweeps 16–28 cycles).
	TimeoutCycles uint64
	// Fold selects the sorting pipeline organization (§4.1).
	Fold sortnet.Fold
	// StepCycles is τ, the time per comparator step (default 4).
	StepCycles uint64
	// CompareCycles and MergeCycles price the DMC unit's operations
	// (§5.3.3: both 2 cycles).
	CompareCycles, MergeCycles uint64
	// LineBytes is the cache line size (64 B).
	LineBytes uint32
	// BlockBytes is the maximum HMC packet and the boundary a packet may
	// not cross (256 B).
	BlockBytes uint32
	// MSHR configures the dynamic MSHR file (16 entries in the paper; the
	// CRQ is sized to match).
	MSHR mshr.Config
	// FirstPhase enables the sorting network + DMC unit. When false,
	// requests flow directly to the MSHRs — the conventional MSHR-based
	// coalescing baseline of Figure 8.
	FirstPhase bool
	// SecondPhase enables MSHR merging. When false every packet allocates
	// fresh entries — the DMC-only series of Figure 8.
	SecondPhase bool
	// Bypass enables the §4.2 idle path: while the CRQ is empty, the input
	// buffer is empty and MSHRs are free, raw requests skip the sorter and
	// go straight to the MSHRs. It re-arms only after the memory system
	// has stayed fully idle for 2048 cycles: §4.2 aims it at program start
	// and blocking calls (I/O, thread communication), not at
	// sub-microsecond traffic valleys.
	Bypass bool
	// AdaptiveTimeout implements the paper's §5.3.3 conclusion that "it is
	// ideal to equate the timeout with the average coalescing latency": the
	// input-buffer timeout tracks an exponential moving average of the
	// per-sequence coalescing cost (sorting + DMC), clamped to
	// [TimeoutCycles/2, 4×TimeoutCycles]. TimeoutCycles seeds the average.
	AdaptiveTimeout bool

	// RetryBackoffCycles is the base delay before a failed (poisoned)
	// packet's span is re-issued; the backoff doubles per attempt up to
	// 4096 cycles. Zero means the default (64 cycles).
	RetryBackoffCycles uint64
	// MaxPacketRetries bounds re-issues per failed span; a span that still
	// fails past the cap completes with its error bit set so waiters are
	// never stranded. Zero means the default (8).
	MaxPacketRetries int
	// DegradeWindow and DegradeThreshold govern degraded mode: over a
	// sliding window of the last DegradeWindow issued packets, an observed
	// link error rate at or above DegradeThreshold caps packet size at one
	// cache line (64 B) — a retransmitted 256 B packet costs 17 FLITs, so
	// degradation trades coalescing efficiency for retry cost. The mode
	// exits when the windowed rate falls to half the threshold. Zero means
	// the defaults (64 packets, 0.25).
	DegradeWindow    int
	DegradeThreshold float64
}

// DefaultConfig returns the paper's evaluation configuration with both
// phases enabled.
func DefaultConfig() Config {
	return Config{
		Width:         16,
		TimeoutCycles: 24,
		Fold:          sortnet.PerStage,
		StepCycles:    sortnet.DefaultStepCycles,
		CompareCycles: 2,
		MergeCycles:   2,
		LineBytes:     64,
		BlockBytes:    256,
		MSHR:          mshr.DefaultConfig(),
		FirstPhase:    true,
		SecondPhase:   true,
		Bypass:        true,
	}
}

// BaselineConfig returns the conventional miss-handling architecture:
// MSHR-based coalescing only, fixed 64 B requests (§2.1).
func BaselineConfig() Config {
	cfg := DefaultConfig()
	cfg.FirstPhase = false
	return cfg
}

// Request is one line-granular LLC miss or write-back entering the
// coalescer.
type Request struct {
	Line    uint64 // absolute cache line number
	Write   bool
	Payload uint32 // useful bytes wanted from the line
	Token   uint64 // opaque completion token returned to the caller
	// CPU is the issuing lane, the heterogeneity-aware scheduler's
	// fairness key. Critical is the trace layer's optional hint that a core
	// is blocked on this request (a demand load). Both are ignored — and
	// free — under the default FR-FCFS policy.
	CPU      uint8
	Critical bool
}

// NeverTick marks a response that will never arrive; it mirrors
// hmc.NeverTick so issue callbacks can pass the device's verdict through.
const NeverTick = ^uint64(0)

// IssueResult is the outcome of one dispatched memory request.
type IssueResult struct {
	// Done is the tick the response completes, or NeverTick if Dropped.
	Done uint64
	// Fault reports a poisoned response: a response arrives at Done but
	// carries no data, and the span must be retried or failed.
	Fault bool
	// Dropped reports the response will never arrive at all.
	Dropped bool
	// Retries is the number of link retransmission rounds the transaction
	// needed; it feeds the degraded-mode error-rate window.
	Retries int
}

// IssueFunc dispatches one memory request (an allocated MSHR entry) to the
// HMC at the given tick and reports how the transaction ended.
type IssueFunc func(tick uint64, e *mshr.Entry) IssueResult

// CompleteFunc delivers a response: the entry's waiters identified by
// their tokens, at the completion tick. fault reports that the data never
// arrived — the span exhausted its retry budget and the waiters observe a
// memory error instead of a fill.
type CompleteFunc func(tick uint64, subs []mshr.Sub, fault bool)

// Coalescer is the two-phase memory coalescer: the sorter and DMC unit of
// the first phase in front of the shared CRQ-to-memory Stage. Degraded
// mode is its packet-admission policy on that stage.
type Coalescer struct {
	Stage

	net  *sortnet.Network
	pipe *sortnet.Pipeline

	pending      []pendingReq // input buffer feeding the sorter
	pendingSince uint64       // tick the oldest pending request arrived
	sortFree     uint64       // next tick the sorter's first stage is free
	curTimeout   uint64       // effective timeout (EWMA when adaptive)

	// flushKeys/flushPad are the sorter's Width-sized working arrays,
	// allocated once; padSwap is the sorter's swap callback over flushPad,
	// built once so flush does not allocate a closure per sequence.
	flushKeys []uint64
	flushPad  []pendingReq
	padSwap   func(i, j int)

	bypassOn   bool   // §4.2 stage-select state: idle bypass armed
	idleSince  uint64 // first tick of the current full-idle span (^0 = busy)
	linesBlock uint64 // lines per HMC block

	// Degraded-mode state. faultWin is the sliding window over issue
	// outcomes; it is allocated lazily on the first observed link error so
	// the no-fault path stays allocation-identical.
	faultWin   []bool
	faultPos   int
	faultCnt   int
	degraded   bool
	degradedAt uint64 // tick degraded mode was last entered
}

// bypassRearmCycles is how long the memory system must stay fully idle
// before the stage select re-arms the §4.2 bypass.
const bypassRearmCycles = 2048

// pendingReq is an input-buffer slot: the request plus its arrival tick,
// needed for the per-request coalescer latency of Figure 14.
type pendingReq struct {
	Request
	pushTick uint64
}

// Validate checks the configuration without building anything. New calls
// it; embedding configs can call it early so a bad sorter width or MSHR
// geometry surfaces as an error at construction, never a panic later.
func (cfg Config) Validate() error {
	if cfg.LineBytes == 0 || cfg.BlockBytes < cfg.LineBytes {
		return fmt.Errorf("coalescer: bad line/block sizes %d/%d", cfg.LineBytes, cfg.BlockBytes)
	}
	if cfg.Width < 2 || cfg.Width&(cfg.Width-1) != 0 {
		return fmt.Errorf("coalescer: sorter width %d is not a power of two ≥ 2", cfg.Width)
	}
	if cfg.MaxPacketRetries < 0 {
		return fmt.Errorf("coalescer: negative retry cap %d", cfg.MaxPacketRetries)
	}
	if cfg.DegradeWindow < 0 {
		return fmt.Errorf("coalescer: negative degrade window %d", cfg.DegradeWindow)
	}
	if cfg.DegradeThreshold < 0 || cfg.DegradeThreshold > 1 {
		return fmt.Errorf("coalescer: degrade threshold %v outside [0,1]", cfg.DegradeThreshold)
	}
	mcfg := cfg.MSHR
	mcfg.LineBytes = cfg.LineBytes
	mcfg.BlockBytes = cfg.BlockBytes
	if err := mcfg.Validate(); err != nil {
		return err
	}
	return nil
}

// New builds a coalescer issuing under the given policy. issue and
// complete must be non-nil.
func New(cfg Config, sched Sched, issue IssueFunc, complete CompleteFunc) (*Coalescer, error) {
	stage, err := NewStage(cfg, sched, issue, complete)
	if err != nil {
		return nil, err
	}
	net, err := sortnet.New(cfg.Width)
	if err != nil {
		return nil, err
	}
	pipe, err := sortnet.NewPipeline(net, cfg.Fold, cfg.StepCycles)
	if err != nil {
		return nil, err
	}
	c := &Coalescer{
		Stage:      stage,
		net:        net,
		pipe:       pipe,
		linesBlock: uint64(cfg.BlockBytes / cfg.LineBytes),
		curTimeout: cfg.TimeoutCycles,
		bypassOn:   true,       // §4.2: the bypass is armed at boot
		idleSince:  ^uint64(0), // not in an idle span until proven so
		flushKeys:  make([]uint64, cfg.Width),
		flushPad:   make([]pendingReq, cfg.Width),
	}
	c.policy = c
	pad := c.flushPad
	c.padSwap = func(i, j int) { pad[i], pad[j] = pad[j], pad[i] }
	return c, nil
}

// Timeout returns the effective input-buffer timeout: the configured value,
// or the tracked average coalescing latency under AdaptiveTimeout.
func (c *Coalescer) Timeout() uint64 { return c.curTimeout }

// adaptTimeout folds one sequence's coalescing cost (sorting + DMC cycles)
// into the adaptive timeout.
func (c *Coalescer) adaptTimeout(cost uint64) {
	if !c.cfg.AdaptiveTimeout {
		return
	}
	// EWMA with 1/8 weight, clamped to a sane band around the seed.
	next := (c.curTimeout*7 + cost) / 8
	if lo := c.cfg.TimeoutCycles / 2; next < lo {
		next = lo
	}
	if hi := c.cfg.TimeoutCycles * 4; next > hi {
		next = hi
	}
	c.curTimeout = next
}

// CheckDrained audits the end-of-run conservation laws: after Drain every
// queue must be empty and every MSHR entry free. It returns the first
// violation found, or nil on a clean coalescer.
func (c *Coalescer) CheckDrained(tick uint64) error {
	if n := len(c.pending); n != 0 {
		return c.Record(invariant.Violatef(invariant.RuleQueueLeak, tick,
			c.DebugState(), "%d request(s) left in the input buffer after drain", n))
	}
	return c.Stage.CheckDrained(tick)
}

// QueueDepths reports the occupancy of the input buffer and the CRQ,
// for diagnostics.
func (c *Coalescer) QueueDepths() (pending, crq int) { return len(c.pending), c.crqLen }

// Push presents one LLC request at the given tick. Ticks must be
// non-decreasing across Push/Fence/Advance calls.
func (c *Coalescer) Push(now uint64, r Request) {
	c.Advance(now)
	c.stats.Requests++
	c.stats.PayloadBytes += uint64(r.Payload)

	if !c.cfg.FirstPhase {
		// Conventional MHA: the miss goes straight at the MSHRs.
		c.admit(now, Packet{
			BaseLine: r.Line, Lines: 1, Write: r.Write,
			Targets: append(c.GetTargets(), mshr.Target{Line: r.Line, Token: r.Token, Payload: r.Payload}),
			Ready:   now, CPU: r.CPU, Critical: r.Critical,
		})
		c.Dispatch(now)
		return
	}

	// §4.2 stage-select hysteresis: the bypass engages when the memory
	// system has been idle for a while (program start, post-blocking-call)
	// and disengages the moment the MSHR file packs; it re-arms only once
	// the system drains and stays drained.
	if c.file.Full() {
		c.bypassOn = false
		c.idleSince = ^uint64(0)
	} else if c.crqLen == 0 && len(c.pending) == 0 && len(c.inflight) == 0 && len(c.retryQ) == 0 {
		if c.idleSince == ^uint64(0) {
			c.idleSince = now
		}
		if now-c.idleSince >= bypassRearmCycles {
			c.bypassOn = true
		}
	} else {
		c.idleSince = ^uint64(0)
	}
	if c.cfg.Bypass && c.bypassOn && len(c.pending) == 0 && c.crqLen == 0 && len(c.retryQ) == 0 && !c.file.Full() {
		// Idle coalescer, free MSHRs — skip the sorter entirely.
		c.stats.Bypassed++
		c.admit(now, Packet{
			BaseLine: r.Line, Lines: 1, Write: r.Write,
			Targets: append(c.GetTargets(), mshr.Target{Line: r.Line, Token: r.Token, Payload: r.Payload}),
			Ready:   now, CPU: r.CPU, Critical: r.Critical,
		})
		c.Dispatch(now)
		return
	}

	if len(c.pending) == 0 {
		c.pendingSince = now
	}
	c.pending = append(c.pending, pendingReq{Request: r, pushTick: now})
	if len(c.pending) >= c.cfg.Width {
		c.flush(now, flushFull)
	}
}

// Fence signals a memory fence at the given tick: the pending sequence is
// flushed immediately and the fence monopolizes one pipeline stage (§3.4).
func (c *Coalescer) Fence(now uint64) {
	c.Advance(now)
	c.stats.Fences++
	if len(c.pending) > 0 {
		c.flush(now, flushFence)
	}
	if c.cfg.FirstPhase {
		if c.sortFree < now {
			c.sortFree = now
		}
		c.sortFree += c.pipe.IntervalCycles()
	}
}

// Advance processes time up to now: releases backed-off retries that fell
// due, delivers any memory responses due at or before now and expires the
// input-buffer timeout.
func (c *Coalescer) Advance(now uint64) {
	c.Settle(now)
	if len(c.pending) > 0 && now >= c.pendingSince+c.curTimeout {
		c.flush(c.pendingSince+c.curTimeout, flushTimeout)
		// A timeout flush may have freed the way for in-flight work.
		c.Deliver(now)
	}
	c.Dispatch(now)
}

// NextEvent returns the earliest tick at which Advance will make further
// progress — a pending-buffer timeout expiry, a packet becoming ready for
// the CRQ, or a memory response — and whether any such event exists.
// Simulators use it to advance time while a CPU is stalled.
func (c *Coalescer) NextEvent() (uint64, bool) {
	next, _ := c.Stage.NextEvent()
	if len(c.pending) > 0 && c.pendingSince+c.curTimeout < next {
		next = c.pendingSince + c.curTimeout
	}
	return next, next != ^uint64(0)
}

// Drain flushes all pending state and runs the clock forward until every
// outstanding request has completed. It returns the tick at which the
// memory system went idle, or the stage's watchdog error when the only
// outstanding responses will never arrive.
func (c *Coalescer) Drain(now uint64) (uint64, error) {
	c.Advance(now)
	if len(c.pending) > 0 {
		c.flush(now, flushDrain)
	}
	idle, err := c.Stage.Drain(now)
	if err != nil {
		return idle, err
	}
	if c.degraded {
		// Close the open degraded interval so the stats cover the run.
		c.stats.DegradedCycles += idle - c.degradedAt
		c.degradedAt = idle
	}
	return idle, nil
}

// observe feeds one issue outcome into the degraded-mode sliding window.
// The window is allocated on the first observed error, so a clean run
// never pays for it.
func (c *Coalescer) observe(now uint64, res IssueResult) {
	errored := res.Fault || res.Dropped || res.Retries > 0
	if c.faultWin == nil {
		if !errored {
			return
		}
		w := c.cfg.DegradeWindow
		if w == 0 {
			w = 64
		}
		c.faultWin = make([]bool, w)
	}
	if c.faultWin[c.faultPos] {
		c.faultCnt--
	}
	c.faultWin[c.faultPos] = errored
	if errored {
		c.faultCnt++
	}
	c.faultPos++
	if c.faultPos == len(c.faultWin) {
		c.faultPos = 0
	}
	thr := c.cfg.DegradeThreshold
	if thr == 0 {
		thr = 0.25
	}
	enter := int(thr*float64(len(c.faultWin)) + 0.5)
	if enter < 1 {
		enter = 1
	}
	switch {
	case !c.degraded && c.faultCnt >= enter:
		c.degraded = true
		c.degradedAt = now
		c.stats.DegradedEntries++
	case c.degraded && c.faultCnt <= enter/2:
		c.degraded = false
		c.stats.DegradedCycles += now - c.degradedAt
	}
}

// Degraded reports whether the DMC is currently capping packets at one
// cache line because of the observed link error rate.
func (c *Coalescer) Degraded() bool { return c.degraded }
