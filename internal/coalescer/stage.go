package coalescer

import (
	"fmt"

	"hmccoal/internal/invariant"
	"hmccoal/internal/mshr"
)

// Sched selects the issue policy the CRQ head uses when dispatching
// packets into the MSHRs. The zero value is the strict first-ready FCFS
// order every configuration used before schedulers existed.
type Sched int

// Issue policies.
const (
	// SchedFRFCFS services the CRQ strictly in FIFO arrival order, issuing
	// the head as soon as it is ready — the paper's implicit policy.
	SchedFRFCFS Sched = iota
	// SchedHetero is the heterogeneity-aware policy: among ready packets it
	// prefers criticality-hinted requests (demand loads a core blocks on)
	// and, within a criticality class, the lane that has moved the fewest
	// bytes so far — deprioritizing bandwidth-hog cores so a streaming
	// accelerator cannot starve latency-sensitive CPUs. Ties fall back to
	// FIFO order, keeping the policy deterministic.
	SchedHetero
)

// String names the policy as the CLI -sched flag spells it.
func (s Sched) String() string {
	switch s {
	case SchedFRFCFS:
		return "frfcfs"
	case SchedHetero:
		return "hetero"
	}
	return fmt.Sprintf("Sched(%d)", int(s))
}

// Validate rejects scheduler values no issue path exists for.
func (s Sched) Validate() error {
	switch s {
	case SchedFRFCFS, SchedHetero:
		return nil
	}
	return fmt.Errorf("coalescer: unknown scheduler %d", int(s))
}

// retryBackoffCap caps a failed span's exponential backoff, in cycles.
const retryBackoffCap = 4096

// Packet is one CRQ entry: a span of lines, the waiters it serves, and the
// tick it may enter the MSHRs.
type Packet struct {
	BaseLine uint64
	Lines    int
	Write    bool
	Targets  []mshr.Target
	Ready    uint64 // earliest tick the packet may enter the MSHRs
	CPU      uint8  // issuing lane (scheduler fairness key)
	Critical bool   // criticality hint carried from the request

	blocked bool   // a previous insert attempt found the file packed
	attempt int    // how many times this span has already failed
	seq     uint64 // retry-queue tie-break, in failure order
}

// admission is an owner's packet-admission policy. The stage routes every
// packet it re-queues itself (released retries) through admit and reports
// every issue outcome to observe, so a policy that reshapes packets by
// link health also covers retries. The two-phase coalescer's degraded
// mode is the one implementation; a stage without one admits packets
// unchanged.
type admission interface {
	admit(now uint64, p Packet)
	observe(now uint64, res IssueResult)
}

// Stage is the second coalescing phase both front-ends share (§3.2): the
// coalesced request queue (CRQ) in front of the dynamic MSHR file, memory
// dispatch under the configured issue policy, span-level retry of
// poisoned responses with capped backoff, and the watchdog for responses
// that never arrive. An owner embeds it by value, hands it packets with
// Enqueue and runs it with Settle, Deliver and Dispatch; the owner's first
// phase adds its own counters through Counters.
type Stage struct {
	cfg      Config
	file     *mshr.File
	issue    IssueFunc
	complete CompleteFunc
	policy   admission

	// The CRQ is a power-of-two ring buffer: crqBuf[crqHead] is the FIFO
	// head and crqLen its occupancy. Popping the head is an index bump, not
	// a reslice, so the backing array is reused for the whole run.
	crqBuf  []Packet
	crqHead int
	crqLen  int

	// targetPool recycles packet target slices retired from the CRQ back to
	// the owner's first phase.
	targetPool [][]mshr.Target

	inflight    []completion
	freedAt     uint64 // tick of the most recent MSHR entry release
	lastIssue   uint64 // tick of the most recent memory dispatch
	lastAdvance uint64 // latest tick Settle has processed
	fillStart   uint64 // start of the current CRQ fill episode
	fillCount   int    // packets supplied in the current episode
	stats       Stats

	// laneBytes is the heterogeneity-aware scheduler's per-lane issued-byte
	// account, indexed by Packet.CPU. It is nil under FR-FCFS, so the
	// default configuration allocates and pays nothing for scheduling.
	laneBytes []uint64

	// retryQ is a min-heap of failed spans awaiting re-issue after backoff,
	// ordered by (ready, seq) so retries release deterministically.
	retryQ   []Packet
	retrySeq uint64

	// check is the optional invariant checker (nil = disabled, free).
	// viol latches the first conservation violation: the former panic
	// sites record here and the event loop aborts on the next poll.
	check *invariant.Checker
	viol  error
}

// NewStage builds the CRQ-to-memory stage for cfg under the given issue
// policy. issue and complete must be non-nil.
func NewStage(cfg Config, sched Sched, issue IssueFunc, complete CompleteFunc) (Stage, error) {
	if issue == nil || complete == nil {
		return Stage{}, fmt.Errorf("coalescer: nil callback")
	}
	if err := cfg.Validate(); err != nil {
		return Stage{}, err
	}
	if err := sched.Validate(); err != nil {
		return Stage{}, err
	}
	mcfg := cfg.MSHR
	mcfg.LineBytes = cfg.LineBytes
	mcfg.BlockBytes = cfg.BlockBytes
	mcfg.DisableMerge = !cfg.SecondPhase
	file, err := mshr.NewFile(mcfg)
	if err != nil {
		return Stage{}, err
	}
	s := Stage{cfg: cfg, file: file, issue: issue, complete: complete}
	if sched == SchedHetero {
		s.laneBytes = make([]uint64, 256) // full uint8 lane space
	}
	return s, nil
}

// Config returns the configuration the stage was built from.
func (s *Stage) Config() Config { return s.cfg }

// Counters exposes the statistics for the owner's first phase to add its
// request, batch and latency counts to.
func (s *Stage) Counters() *Stats { return &s.stats }

// Stats returns a snapshot of the counters.
func (s *Stage) Stats() Stats { return s.stats }

// MSHRStats exposes the MSHR file counters.
func (s *Stage) MSHRStats() mshr.Stats { return s.file.Stats() }

// Outstanding reports how many memory requests are in flight.
func (s *Stage) Outstanding() int { return len(s.inflight) }

// CRQLen reports how many packets wait in the CRQ.
func (s *Stage) CRQLen() int { return s.crqLen }

// SetChecker attaches a runtime invariant checker to the stage and its
// MSHR file. A nil checker (the default) disables continuous checking.
func (s *Stage) SetChecker(ck *invariant.Checker) {
	s.check = ck
	s.file.SetChecker(ck)
}

// Err returns the first conservation violation the stage hit, or nil.
// The violation is sticky: once set, further simulation is untrustworthy
// and the caller should abort the run.
func (s *Stage) Err() error { return s.viol }

// setViol latches a violation (first one wins) and records it with the
// attached checker, if any.
func (s *Stage) setViol(v *invariant.Violation) {
	s.check.Record(v)
	if s.viol == nil {
		s.viol = v
	}
}

// Record logs a violation the owner detected with the attached checker,
// if any, and returns it as an error.
func (s *Stage) Record(v *invariant.Violation) error { return s.check.Record(v) }

// DebugState renders internal queue state for deadlock diagnostics.
func (s *Stage) DebugState() string {
	d := fmt.Sprintf("lastAdvance=%d freedAt=%d lastIssue=%d free=%d", s.lastAdvance, s.freedAt, s.lastIssue, s.file.Free())
	if s.crqLen > 0 {
		p := s.crqFront()
		d += fmt.Sprintf(" head{base=%d lines=%d write=%v ready=%d blocked=%v targets=%d}",
			p.BaseLine, p.Lines, p.Write, p.Ready, p.blocked, len(p.Targets))
	}
	return d
}

// GetTargets hands out an empty target slice, recycled when possible.
func (s *Stage) GetTargets() []mshr.Target {
	if n := len(s.targetPool); n > 0 {
		t := s.targetPool[n-1]
		s.targetPool = s.targetPool[:n-1]
		return t[:0]
	}
	return make([]mshr.Target, 0, s.cfg.Width)
}

// PutTargets returns a target slice the owner no longer needs to the pool.
func (s *Stage) PutTargets(t []mshr.Target) {
	if cap(t) > 0 {
		s.targetPool = append(s.targetPool, t)
	}
}

// crqFront returns the FIFO head packet. The CRQ must be non-empty.
func (s *Stage) crqFront() *Packet {
	return &s.crqBuf[s.crqHead]
}

// crqPush appends a packet at the ring's tail, growing it as needed.
func (s *Stage) crqPush(p Packet) {
	if s.crqLen == len(s.crqBuf) {
		size := len(s.crqBuf) * 2
		if size == 0 {
			size = 16
		}
		grown := make([]Packet, size)
		for i := 0; i < s.crqLen; i++ {
			grown[i] = s.crqBuf[(s.crqHead+i)&(len(s.crqBuf)-1)]
		}
		s.crqBuf = grown
		s.crqHead = 0
	}
	s.crqBuf[(s.crqHead+s.crqLen)&(len(s.crqBuf)-1)] = p
	s.crqLen++
}

// crqPop retires the FIFO head, recycling its target slice.
func (s *Stage) crqPop() {
	p := &s.crqBuf[s.crqHead]
	s.PutTargets(p.Targets)
	p.Targets = nil
	s.crqHead = (s.crqHead + 1) & (len(s.crqBuf) - 1)
	s.crqLen--
}

// Enqueue appends a packet to the CRQ and maintains the fill-episode
// accounting behind Figure 13: an episode measures how long the first
// phase takes to supply one CRQ's worth of packets (capacity = number of
// MSHRs). Better coalescing means fewer packets per batch and therefore a
// longer fill time — the FT effect discussed in §5.3.3. The stage takes
// ownership of the packet's target slice.
func (s *Stage) Enqueue(now uint64, p Packet) {
	if s.fillCount == 0 {
		s.fillStart = now
	}
	s.crqPush(p)
	s.stats.Packets++
	if s.crqLen > s.stats.CRQPeak {
		s.stats.CRQPeak = s.crqLen
	}
	s.fillCount++
	if s.fillCount >= s.cfg.MSHR.Entries {
		s.stats.CRQFillCycles += now - s.fillStart
		s.stats.CRQFills++
		s.fillCount = 0
	}
}

// Settle processes the stage's own events up to now: it records now as
// the latest processed tick, moves failed spans whose backoff expired
// back into the CRQ and delivers every response due at or before now.
// The owner then runs its first phase and calls Dispatch.
func (s *Stage) Settle(now uint64) {
	if now > s.lastAdvance {
		s.lastAdvance = now
	}
	s.releaseRetries(now)
	s.Deliver(now)
}

// Deliver completes every in-flight response due at or before now.
func (s *Stage) Deliver(now uint64) {
	for len(s.inflight) > 0 && s.inflight[0].tick <= now {
		s.completeOne()
	}
}

// releaseRetries moves failed spans whose backoff has expired back into
// the CRQ as fresh non-coalesced packets, through the owner's admission
// policy.
func (s *Stage) releaseRetries(now uint64) {
	for len(s.retryQ) > 0 && s.retryQ[0].Ready <= now {
		var p Packet
		s.retryQ, p = retryPop(s.retryQ)
		if s.policy != nil {
			s.policy.admit(p.Ready, p)
		} else {
			s.Enqueue(p.Ready, p)
		}
	}
}

// NextEvent returns the earliest tick at which the stage itself makes
// further progress — a memory response, a backed-off retry falling due,
// or a queued packet becoming ready — and whether any such event exists.
// Owners fold in their first phase's timers. Events already processed are
// excluded: a CRQ head that became ready in the past but is blocked on a
// packed MSHR file only progresses at the next completion.
func (s *Stage) NextEvent() (uint64, bool) {
	next := ^uint64(0)
	if len(s.inflight) > 0 {
		next = s.inflight[0].tick
	}
	if len(s.retryQ) > 0 && s.retryQ[0].Ready < next {
		next = s.retryQ[0].Ready
	}
	if s.crqLen > 0 {
		if ready := s.crqNextReady(); ready > s.lastAdvance && ready < next {
			next = ready
		}
	}
	return next, next != ^uint64(0)
}

// crqNextReady returns the earliest ready tick among queued packets: the
// head's under FIFO (strict order), the minimum over the whole CRQ under
// the heterogeneity-aware scheduler — which may issue out of FIFO order,
// so a later packet becoming ready is a real event.
func (s *Stage) crqNextReady() uint64 {
	if s.laneBytes == nil || s.crqFront().blocked {
		return s.crqFront().Ready
	}
	next := s.crqFront().Ready
	mask := len(s.crqBuf) - 1
	for i := 1; i < s.crqLen; i++ {
		if r := s.crqBuf[(s.crqHead+i)&mask].Ready; r < next {
			next = r
		}
	}
	return next
}

// Drain runs the clock forward from now until every queued packet has
// issued and every outstanding request has completed, and returns the tick
// the memory system went idle. The owner flushes its first phase first.
//
// If the only outstanding responses are ones that will never arrive
// (dropped on a faulty link), Drain returns a watchdog error naming the
// oldest of them instead of looping forever — the caller decides how to
// report it.
func (s *Stage) Drain(now uint64) (uint64, error) {
	idle := now
	for len(s.inflight) > 0 || s.crqLen > 0 || len(s.retryQ) > 0 {
		if s.viol != nil {
			return idle, s.viol
		}
		next := ^uint64(0)
		if len(s.inflight) > 0 && s.inflight[0].tick != NeverTick {
			next = s.inflight[0].tick
		}
		if len(s.retryQ) > 0 && s.retryQ[0].Ready < next {
			next = s.retryQ[0].Ready
		}
		if s.crqLen > 0 {
			if ready := s.crqNextReady(); ready > idle && ready < next {
				next = ready
			}
		}
		if next == ^uint64(0) {
			if w, ok := s.Watchdog(); ok {
				// Everything still in flight is a dropped response: no
				// event will ever fire again. Report instead of hanging.
				return idle, s.watchdogError(w)
			}
			// The CRQ head is ready but blocked with nothing in flight.
			// A blocked head implies a full MSHR file, and every allocated
			// entry is in flight — so this state indicates a bug. Report it
			// as a structured violation instead of tearing the process down.
			v := invariant.Violatef(invariant.RuleCRQStuck, idle, s.DebugState(),
				"CRQ stuck with no requests in flight (%d queued, MSHR free=%d)",
				s.crqLen, s.file.Free())
			s.setViol(v)
			return idle, v
		}
		if next > idle {
			idle = next
		}
		s.releaseRetries(idle)
		if len(s.inflight) > 0 && s.inflight[0].tick <= idle {
			s.completeOne()
		}
		s.Dispatch(idle)
	}
	return idle, s.viol
}

// CheckDrained audits the stage's end-of-run conservation laws: after
// Drain the CRQ, the retry queue and the in-flight set must be empty and
// every MSHR entry free. It returns the first violation found, or nil.
func (s *Stage) CheckDrained(tick uint64) error {
	if s.crqLen != 0 {
		return s.check.Record(invariant.Violatef(invariant.RuleQueueLeak, tick,
			s.DebugState(), "%d packet(s) left in the CRQ after drain", s.crqLen))
	}
	if n := len(s.retryQ); n != 0 {
		return s.check.Record(invariant.Violatef(invariant.RuleQueueLeak, tick,
			s.DebugState(), "%d failed span(s) left in the retry queue after drain", n))
	}
	if n := len(s.inflight); n != 0 {
		return s.check.Record(invariant.Violatef(invariant.RuleQueueLeak, tick,
			s.DebugState(), "%d request(s) still in flight after drain", n))
	}
	return s.file.CheckLeaks(tick)
}

// Dispatch advances the CRQ head into the MSHRs: second-phase coalescing,
// entry allocation and memory dispatch. now is the current event tick.
func (s *Stage) Dispatch(now uint64) {
	for s.crqLen > 0 {
		if s.laneBytes != nil && s.crqLen > 1 && !s.crqFront().blocked {
			s.selectReady(now)
		}
		p := s.crqFront()
		if p.Ready > now {
			return
		}
		// The insert happens as soon as both the packet and the MSHR state
		// allow: not before the packet was ready, not before the entry
		// release it was blocked on, and never out of FIFO order.
		t := p.Ready
		if p.blocked && s.freedAt > t {
			t = s.freedAt
		}
		if s.lastIssue > t {
			t = s.lastIssue
		}
		minLine, maxLine := p.Targets[0].Line, p.Targets[0].Line
		for _, tg := range p.Targets[1:] {
			if tg.Line < minLine {
				minLine = tg.Line
			}
			if tg.Line > maxLine {
				maxLine = tg.Line
			}
		}
		out, err := s.file.Insert(minLine, int(maxLine-minLine)+1, p.Write, p.Targets)
		if err != nil {
			// A CRQ packet the file rejects is malformed bookkeeping, not a
			// recoverable stall: latch the violation and retire the packet so
			// the event loop can abort instead of spinning on it.
			if v, ok := invariant.As(err); ok {
				s.setViol(v)
			} else {
				s.setViol(invariant.Violatef(invariant.RuleCRQInsert, now, s.DebugState(),
					"CRQ packet [line %d, %d lines, write=%v, %d targets] rejected by MSHR file: %v",
					p.BaseLine, p.Lines, p.Write, len(p.Targets), err))
			}
			s.crqPop()
			return
		}
		issuedSubs := 0
		for _, e := range out.Issued {
			issuedSubs += len(e.Subs())
		}
		if out.MergedTargets+issuedSubs+len(out.Unplaced) != len(p.Targets) {
			s.setViol(invariant.Violatef(invariant.RuleTargetConservation, now, s.DebugState(),
				"%d targets -> %d merged + %d issued + %d unplaced",
				len(p.Targets), out.MergedTargets, issuedSubs, len(out.Unplaced)))
			s.crqPop()
			return
		}
		for _, e := range out.Issued {
			s.stats.HMCRequests++
			res := s.issue(t, e)
			if s.policy != nil {
				s.policy.observe(t, res)
			}
			s.stats.LinkRetryRounds += uint64(res.Retries)
			if res.Dropped {
				s.stats.DroppedPackets++
				res.Done = NeverTick // normalize whatever the callback set
			} else if res.Fault {
				s.stats.PoisonedPackets++
			}
			if s.laneBytes != nil {
				s.laneBytes[p.CPU] += uint64(e.Lines()) * uint64(s.cfg.LineBytes)
			}
			s.inflight = completionPush(s.inflight, completion{
				tick: res.Done, entry: e, issuedAt: t, fault: res.Fault, attempt: p.attempt,
				cpu: p.CPU, critical: p.Critical,
			})
		}
		s.lastIssue = t
		if len(out.Unplaced) > 0 {
			// Head blocks in FIFO order until an entry frees; the already
			// placed waiters must not be retried. The unplaced set is a
			// subset of the packet's own targets, so it fits in place —
			// copying it frees the file's scratch buffer for the retry.
			p.Targets = append(p.Targets[:0], out.Unplaced...)
			p.blocked = true
			return
		}
		s.crqPop()
	}
}

// selectReady implements the heterogeneity-aware issue policy: among the
// packets already ready at now it rotates the preferred one to the CRQ
// head, keeping every other packet in FIFO order. With no ready packet, or
// when the FIFO head already wins, the queue is untouched — so FR-FCFS
// behavior is the fixed point the policy degrades to under light load.
func (s *Stage) selectReady(now uint64) {
	mask := len(s.crqBuf) - 1
	best := -1
	for i := 0; i < s.crqLen; i++ {
		p := &s.crqBuf[(s.crqHead+i)&mask]
		if p.Ready > now {
			continue
		}
		if best < 0 || s.schedBetter(p, &s.crqBuf[(s.crqHead+best)&mask]) {
			best = i
		}
	}
	if best <= 0 {
		return
	}
	sel := s.crqBuf[(s.crqHead+best)&mask]
	for i := best; i > 0; i-- {
		s.crqBuf[(s.crqHead+i)&mask] = s.crqBuf[(s.crqHead+i-1)&mask]
	}
	s.crqBuf[s.crqHead] = sel
}

// schedBetter ranks two ready packets under SchedHetero: criticality hints
// first, then the lane that has issued the fewest bytes — deprioritizing
// bandwidth hogs — with FIFO order (the earlier packet) winning ties.
func (s *Stage) schedBetter(a, b *Packet) bool {
	if a.Critical != b.Critical {
		return a.Critical
	}
	if ab, bb := s.laneBytes[a.CPU], s.laneBytes[b.CPU]; ab != bb {
		return ab < bb
	}
	return false
}

func (s *Stage) completeOne() {
	var item completion
	s.inflight, item = completionPop(s.inflight)
	e := item.entry
	// Capture the span before Complete invalidates the entry: a poisoned
	// response may need to re-issue exactly these lines.
	baseLine, lines, write := e.BaseLine(), e.Lines(), e.Write()
	subs, err := s.file.Complete(e)
	if err != nil {
		if v, ok := invariant.As(err); ok {
			s.setViol(v)
		} else if s.viol == nil {
			s.viol = err
		}
		return
	}
	s.freedAt = item.tick
	if item.fault && item.attempt < s.maxPacketRetries() {
		s.requeueFailed(item.tick, item.attempt, baseLine, lines, write, subs, item.cpu, item.critical)
	} else {
		if item.fault {
			s.stats.FailedTargets += uint64(len(subs))
		}
		s.complete(item.tick, subs, item.fault)
	}
	s.Dispatch(item.tick)
}

func (s *Stage) maxPacketRetries() int {
	if s.cfg.MaxPacketRetries == 0 {
		return 8
	}
	return s.cfg.MaxPacketRetries
}

// requeueFailed schedules a failed span for re-issue as a fresh packet —
// deliberately not re-coalesced: it goes straight back to the CRQ — after
// a capped exponential backoff.
func (s *Stage) requeueFailed(now uint64, attempt int, baseLine uint64, lines int, write bool, subs []mshr.Sub, cpu uint8, critical bool) {
	base := s.cfg.RetryBackoffCycles
	if base == 0 {
		base = 64
	}
	backoff := base << uint(attempt)
	if backoff > retryBackoffCap || backoff < base { // < base catches shift overflow
		backoff = retryBackoffCap
	}
	s.stats.RetriedPackets++
	s.stats.RetryBackoffCycles += backoff
	// subs alias the entry's reusable backing; rebuild durable targets now.
	targets := s.GetTargets()
	for _, sub := range subs {
		targets = append(targets, mshr.Target{Line: baseLine + uint64(sub.LineID), Token: sub.Token, Payload: sub.Payload})
	}
	p := Packet{
		BaseLine: baseLine, Lines: lines, Write: write, Targets: targets,
		Ready: now + backoff, attempt: attempt + 1, seq: s.retrySeq,
		CPU: cpu, Critical: critical,
	}
	s.retrySeq++
	s.retryQ = retryPush(s.retryQ, p)
}

// WatchdogInfo describes the oldest memory response that will never
// arrive, for the simulator's watchdog diagnostic.
type WatchdogInfo struct {
	// Dropped is how many in-flight responses will never arrive.
	Dropped int
	// Line is the base cache line of the oldest dropped entry; Lines and
	// Write complete its span, Waiters its subentry count.
	Line    uint64
	Lines   int
	Write   bool
	Waiters int
	// Entry is the owning MSHR entry's slot in the file.
	Entry int
	// IssuedAt is the tick the doomed request was dispatched.
	IssuedAt uint64
}

// Watchdog scans the in-flight set for responses that will never arrive
// and, if any exist, describes the oldest (by issue tick, then MSHR slot —
// a total order independent of heap layout).
func (s *Stage) Watchdog() (WatchdogInfo, bool) {
	var w WatchdogInfo
	for i := range s.inflight {
		it := &s.inflight[i]
		if it.tick != NeverTick {
			continue
		}
		w.Dropped++
		e := it.entry
		if w.Dropped == 1 || it.issuedAt < w.IssuedAt ||
			(it.issuedAt == w.IssuedAt && e.Index() < w.Entry) {
			w.Line = e.BaseLine()
			w.Lines = e.Lines()
			w.Write = e.Write()
			w.Waiters = len(e.Subs())
			w.Entry = e.Index()
			w.IssuedAt = it.issuedAt
		}
	}
	return w, w.Dropped > 0
}

// DoomedTokens calls fn for every waiter token attached to an in-flight
// request whose response will never arrive (a dropped packet). Such
// tokens are permanently leaked — the completion path that would recycle
// them is unreachable — so a token-ring allocator that wraps onto one of
// their slots may reclaim the slot instead of reporting reuse.
func (s *Stage) DoomedTokens(fn func(token uint64)) {
	for i := range s.inflight {
		it := &s.inflight[i]
		if it.tick != NeverTick {
			continue
		}
		for _, sub := range it.entry.Subs() {
			fn(sub.Token)
		}
	}
}

// WatchdogError renders the watchdog diagnostic as an error, or nil when
// every in-flight response is still expected.
func (s *Stage) WatchdogError() error {
	w, ok := s.Watchdog()
	if !ok {
		return nil
	}
	return s.watchdogError(w)
}

// watchdogError renders a deterministic diagnostic for a drained-out run
// whose remaining responses will never arrive. The ErrWatchdog sentinel is
// spliced in with %w so soak harnesses can classify the error while the
// rendered message stays stable.
func (s *Stage) watchdogError(w WatchdogInfo) error {
	return fmt.Errorf("coalescer: %w: %d response(s) never arrived; oldest: line %d "+
		"(MSHR entry %d, %d lines, write=%v, %d waiters, issued at %d); %s",
		ErrWatchdog, w.Dropped, w.Line, w.Entry, w.Lines, w.Write, w.Waiters, w.IssuedAt, s.DebugState())
}

// completion pairs an outstanding MSHR entry with its response tick.
// tick is NeverTick for a dropped response — such completions sink to the
// bottom of the heap and only the watchdog ever looks at them.
type completion struct {
	tick     uint64
	entry    *mshr.Entry
	issuedAt uint64 // dispatch tick, for watchdog age ordering
	fault    bool   // response arrived poisoned
	attempt  int    // span-level retry attempts already spent
	cpu      uint8  // issuing lane, carried so retries keep their account
	critical bool   // criticality hint, carried across retries
}

// The in-flight min-heap is hand-inlined: container/heap's interface
// indirection boxes every completion on push and pop, and this runs once
// per memory request. The sift routines mirror container/heap exactly
// (left child preferred on ties) so the pop order of same-tick completions
// is unchanged.

// completionPush inserts x and returns the updated heap slice.
func completionPush(h []completion, x completion) []completion {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[i].tick >= h[p].tick {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// completionPop removes the minimum completion, returning the shrunk slice
// and the removed item.
func completionPop(h []completion) ([]completion, completion) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	item := h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].tick < h[j].tick {
			j = r
		}
		if h[j].tick >= h[i].tick {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h, item
}

// The retry queue is a min-heap of failed spans ordered by (ready, seq):
// release time first, failure order as the tie-break, so backed-off
// retries re-enter the CRQ in a deterministic total order.

func retryLess(a, b *Packet) bool {
	if a.Ready != b.Ready {
		return a.Ready < b.Ready
	}
	return a.seq < b.seq
}

// retryPush inserts x and returns the updated heap slice.
func retryPush(h []Packet, x Packet) []Packet {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !retryLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// retryPop removes the minimum packet, returning the shrunk slice and the
// removed item.
func retryPop(h []Packet) ([]Packet, Packet) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	item := h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && retryLess(&h[r], &h[j]) {
			j = r
		}
		if !retryLess(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h, item
}
