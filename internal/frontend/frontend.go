// Package frontend puts the coalescing front-end — the unit between the
// shared LLC and the memory backend — behind a pluggable interface, so the
// evaluation can swap how misses are gathered into memory packets without
// touching the simulator's tick loop. Two front-ends are provided:
//
//	two-phase  the paper's CPU coalescer (internal/coalescer): input
//	           buffer, odd–even merge sorting network, DMC unit, CRQ and
//	           dynamic MSHRs — the default, byte-identical to the
//	           pre-frontend simulator
//	warp       a GPU-style coalescing unit: per-lane warp buffers that
//	           close on width or timeout and merge at block granularity
//	           in first-touch order, the memory-access coalescing found
//	           in GPGPU SIMT front-ends
//
// Orthogonally to the front-end kind, the issue policy that picks which
// queued packet reaches the MSHRs next is pluggable: strict FR-FCFS (the
// default) or a heterogeneity-aware scheduler that favors criticality-
// hinted requests and starved lanes over bandwidth hogs.
//
// The two differ only in their first phase. Both share the coalescer's
// second phase, coalescer.Stage: the CRQ, the dynamic MSHRs, memory issue
// under the chosen policy, span retry with backoff and the watchdog. So
// they speak the same request/callback interface and keep the same
// statistics shape (coalescer.Stats, mshr.Stats), and every metric and
// table in the evaluation renders identically whichever front-end is
// plugged in.
package frontend

import (
	"fmt"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/invariant"
	"hmccoal/internal/mshr"
)

// Kind selects a front-end implementation. The zero value is the two-phase
// coalescer, so configurations that predate front-end selection are
// unchanged.
type Kind int

// Front-end kinds.
const (
	// KindTwoPhase is the paper's two-phase CPU coalescer.
	KindTwoPhase Kind = iota
	// KindWarp is the GPU-style warp coalescing unit.
	KindWarp
)

// String names the kind as the CLI -frontend flag spells it.
func (k Kind) String() string {
	switch k {
	case KindTwoPhase:
		return "two-phase"
	case KindWarp:
		return "warp"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Validate rejects kinds no factory case exists for.
func (k Kind) Validate() error {
	switch k {
	case KindTwoPhase, KindWarp:
		return nil
	}
	return fmt.Errorf("frontend: unknown frontend kind %d", int(k))
}

// ParseKind maps a -frontend flag value to a Kind. The empty string means
// the default two-phase coalescer.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "two-phase":
		return KindTwoPhase, nil
	case "warp":
		return KindWarp, nil
	}
	return 0, fmt.Errorf("frontend: unknown frontend %q (have two-phase, warp)", s)
}

// Kinds lists the recognized front-end names for usage messages.
func Kinds() []string { return []string{"two-phase", "warp"} }

// SchedKind selects the issue policy inside a front-end; it is the
// coalescer stage's policy enum. The zero value is strict FR-FCFS, the
// policy every pre-scheduler configuration used.
type SchedKind = coalescer.Sched

// Scheduler kinds.
const (
	// SchedFRFCFS issues queued packets strictly in arrival order.
	SchedFRFCFS = coalescer.SchedFRFCFS
	// SchedHetero is the heterogeneity-aware policy: criticality-hinted
	// requests first, then the lane with the fewest issued bytes.
	SchedHetero = coalescer.SchedHetero
)

// ParseSched maps a -sched flag value to a SchedKind. The empty string
// means the default FR-FCFS policy.
func ParseSched(s string) (SchedKind, error) {
	switch s {
	case "", "frfcfs":
		return SchedFRFCFS, nil
	case "hetero":
		return SchedHetero, nil
	}
	return 0, fmt.Errorf("frontend: unknown scheduler %q (have frfcfs, hetero)", s)
}

// Scheds lists the recognized scheduler names for usage messages.
func Scheds() []string { return []string{"frfcfs", "hetero"} }

// Config parameterizes a front-end: which implementation, which issue
// policy, how many request lanes (CPUs) feed it, and the shared coalescer
// geometry/timing every front-end interprets.
type Config struct {
	// Kind selects the implementation (zero = two-phase).
	Kind Kind
	// Sched selects the issue policy (zero = FR-FCFS).
	Sched SchedKind
	// Lanes is the number of request sources (CPUs); the warp front-end
	// keeps one open warp buffer per lane.
	Lanes int
	// Coalescer is the shared front-end geometry: width, timeout, line and
	// block sizes, MSHR file, phase switches and fault-recovery knobs.
	Coalescer coalescer.Config
}

// Frontend is the coalescing unit under the simulator: it accepts LLC
// misses, batches them into memory packets and dispatches them through the
// issue callback. Implementations are single-goroutine, tick-driven and
// deterministic: the same push sequence produces the same issues,
// completions and statistics.
type Frontend interface {
	// Push presents one LLC request at the given tick; ticks must be
	// non-decreasing across Push/Fence/Advance calls.
	Push(now uint64, r coalescer.Request)
	// Fence signals a memory fence: pending batches flush immediately.
	Fence(now uint64)
	// Advance processes time up to now: timeouts, retries, completions.
	Advance(now uint64)
	// NextEvent returns the earliest tick Advance will make progress at.
	NextEvent() (uint64, bool)
	// Drain flushes all pending state and runs the clock until idle.
	Drain(now uint64) (uint64, error)
	// Err returns the first latched conservation violation, or nil.
	Err() error
	// Stats returns a copy of the accumulated front-end statistics.
	Stats() coalescer.Stats
	// MSHRStats exposes the MSHR file counters.
	MSHRStats() mshr.Stats
	// QueueDepths reports input-buffer and packet-queue occupancy.
	QueueDepths() (pending, crq int)
	// DebugState renders internal queue state for deadlock diagnostics.
	DebugState() string
	// SetChecker attaches a runtime invariant checker (nil disables).
	SetChecker(*invariant.Checker)
	// CheckDrained audits the end-of-run conservation laws.
	CheckDrained(tick uint64) error
	// WatchdogError describes responses that will never arrive, or nil.
	WatchdogError() error
	// DoomedTokens visits the waiter tokens of dropped in-flight requests.
	DoomedTokens(fn func(token uint64))
}

// New builds a front-end of the configured kind. issue and complete must
// be non-nil. The two-phase kind is the bare *coalescer.Coalescer: storing
// a pointer in the interface never heap-allocates, so the default path's
// alloc profile is the pre-frontend simulator's.
func New(cfg Config, issue coalescer.IssueFunc, complete coalescer.CompleteFunc) (Frontend, error) {
	if err := cfg.Kind.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kind == KindWarp {
		return newWarp(cfg, issue, complete)
	}
	c, err := coalescer.New(cfg.Coalescer, cfg.Sched, issue, complete)
	if err != nil {
		return nil, err
	}
	return c, nil
}
