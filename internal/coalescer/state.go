package coalescer

import (
	"fmt"

	"hmccoal/internal/mshr"
)

// completionState is one captured in-flight completion. The MSHR entry
// pointer is stored as its stable index and re-pointed on restore.
type completionState struct {
	tick       uint64
	entryIndex int
	issuedAt   uint64
	fault      bool
	attempt    int
	cpu        uint8
	critical   bool
}

// StageState is an opaque deep copy of a Stage's mutable state: the CRQ
// (linearized to FIFO order), the in-flight and retry heaps (verbatim
// array order, so tie-breaking after a restore matches the uninterrupted
// run exactly), the MSHR file, the scheduler accounts and every statistic.
type StageState struct {
	crq      []Packet // FIFO order, head first
	inflight []completionState
	retryQ   []Packet

	freedAt     uint64
	lastIssue   uint64
	lastAdvance uint64
	fillStart   uint64
	fillCount   int
	stats       Stats
	retrySeq    uint64

	laneBytes []uint64 // hetero scheduler accounts (nil under FR-FCFS)

	file *mshr.FileState
}

// State is an opaque deep copy of the coalescer's mutable state: its
// stage, the pending input buffer, and the bypass and degraded-mode
// machinery.
type State struct {
	stage *StageState

	pending      []pendingReq
	pendingSince uint64
	sortFree     uint64
	curTimeout   uint64
	bypassOn     bool
	idleSince    uint64

	faultWin   []bool
	faultPos   int
	faultCnt   int
	degraded   bool
	degradedAt uint64
}

// clonePacket copies a packet with its own target slice; the target-slice
// pool is working storage and not captured.
func clonePacket(p *Packet) Packet {
	cp := *p
	cp.Targets = append([]mshr.Target(nil), p.Targets...)
	return cp
}

// SaveState deep-copies the stage's mutable state. It refuses to snapshot
// a stage that has latched a conservation violation — the state is
// untrustworthy by definition.
func (s *Stage) SaveState() (*StageState, error) {
	if s.viol != nil {
		return nil, fmt.Errorf("coalescer: cannot snapshot after violation: %w", s.viol)
	}
	st := &StageState{
		freedAt:     s.freedAt,
		lastIssue:   s.lastIssue,
		lastAdvance: s.lastAdvance,
		fillStart:   s.fillStart,
		fillCount:   s.fillCount,
		stats:       s.stats,
		retrySeq:    s.retrySeq,
		file:        s.file.SaveState(),
	}
	st.crq = make([]Packet, s.crqLen)
	for i := 0; i < s.crqLen; i++ {
		st.crq[i] = clonePacket(&s.crqBuf[(s.crqHead+i)&(len(s.crqBuf)-1)])
	}
	st.inflight = make([]completionState, len(s.inflight))
	for i := range s.inflight {
		st.inflight[i] = completionState{
			tick:       s.inflight[i].tick,
			entryIndex: s.inflight[i].entry.Index(),
			issuedAt:   s.inflight[i].issuedAt,
			fault:      s.inflight[i].fault,
			attempt:    s.inflight[i].attempt,
			cpu:        s.inflight[i].cpu,
			critical:   s.inflight[i].critical,
		}
	}
	st.retryQ = make([]Packet, len(s.retryQ))
	for i := range s.retryQ {
		st.retryQ[i] = clonePacket(&s.retryQ[i])
	}
	if s.laneBytes != nil {
		st.laneBytes = append([]uint64(nil), s.laneBytes...)
	}
	return st, nil
}

// RestoreState replays a snapshot into the stage, which must have been
// built from the same configuration (and callbacks bound to the restored
// system). The CRQ is re-laid-out from index 0 — FIFO content, not ring
// phase, is the state — while both heaps are restored in verbatim array
// order so future pops break ties exactly as the snapshotted run would.
func (s *Stage) RestoreState(st *StageState) error {
	if s.viol != nil {
		return fmt.Errorf("coalescer: cannot restore after violation: %w", s.viol)
	}
	if err := s.file.RestoreState(st.file); err != nil {
		return err
	}
	need := len(s.crqBuf)
	if need == 0 && len(st.crq) > 0 {
		need = 16 // matches crqPush's initial allocation
	}
	for need < len(st.crq) {
		need *= 2
	}
	if need != len(s.crqBuf) {
		s.crqBuf = make([]Packet, need)
	}
	for i := range s.crqBuf {
		s.crqBuf[i] = Packet{}
	}
	for i := range st.crq {
		s.crqBuf[i] = clonePacket(&st.crq[i])
	}
	s.crqHead = 0
	s.crqLen = len(st.crq)
	s.inflight = s.inflight[:0]
	for i := range st.inflight {
		s.inflight = append(s.inflight, completion{
			tick:     st.inflight[i].tick,
			entry:    s.file.EntryAt(st.inflight[i].entryIndex),
			issuedAt: st.inflight[i].issuedAt,
			fault:    st.inflight[i].fault,
			attempt:  st.inflight[i].attempt,
			cpu:      st.inflight[i].cpu,
			critical: st.inflight[i].critical,
		})
	}
	s.retryQ = s.retryQ[:0]
	for i := range st.retryQ {
		s.retryQ = append(s.retryQ, clonePacket(&st.retryQ[i]))
	}
	s.freedAt = st.freedAt
	s.lastIssue = st.lastIssue
	s.lastAdvance = st.lastAdvance
	s.fillStart = st.fillStart
	s.fillCount = st.fillCount
	s.stats = st.stats
	s.retrySeq = st.retrySeq
	if st.laneBytes != nil {
		s.laneBytes = append(s.laneBytes[:0], st.laneBytes...)
	} else if s.laneBytes != nil {
		for i := range s.laneBytes {
			s.laneBytes[i] = 0
		}
	}
	return nil
}

// SaveState deep-copies the coalescer's mutable state; like the stage's,
// it refuses after a latched conservation violation.
func (c *Coalescer) SaveState() (*State, error) {
	stage, err := c.Stage.SaveState()
	if err != nil {
		return nil, err
	}
	st := &State{
		stage:        stage,
		pending:      append([]pendingReq(nil), c.pending...),
		pendingSince: c.pendingSince,
		sortFree:     c.sortFree,
		curTimeout:   c.curTimeout,
		bypassOn:     c.bypassOn,
		idleSince:    c.idleSince,
		faultPos:     c.faultPos,
		faultCnt:     c.faultCnt,
		degraded:     c.degraded,
		degradedAt:   c.degradedAt,
	}
	if c.faultWin != nil {
		st.faultWin = append([]bool(nil), c.faultWin...)
	}
	return st, nil
}

// RestoreState replays a snapshot into the coalescer, which must have been
// built from the same configuration and issue policy.
func (c *Coalescer) RestoreState(st *State) error {
	if err := c.Stage.RestoreState(st.stage); err != nil {
		return err
	}
	c.pending = append(c.pending[:0], st.pending...)
	c.pendingSince = st.pendingSince
	c.sortFree = st.sortFree
	c.curTimeout = st.curTimeout
	c.bypassOn = st.bypassOn
	c.idleSince = st.idleSince
	if st.faultWin != nil {
		c.faultWin = append([]bool(nil), st.faultWin...)
	} else {
		c.faultWin = nil
	}
	c.faultPos = st.faultPos
	c.faultCnt = st.faultCnt
	c.degraded = st.degraded
	c.degradedAt = st.degradedAt
	return nil
}
