package sim

import (
	"fmt"

	"hmccoal/internal/trace"
)

// Snapshot marks a point in a running System, taken between Steps: the
// configuration, the trace, how many Steps had run and the tick they
// reached. It holds no simulator state. Restore rebuilds that state by
// replaying the Steps, which the determinism contract makes byte-identical
// to the original run, fault injection and invariant checking included.
//
// The trace is captured by reference: accesses are read-only to the
// simulator, so snapshot and original share it. Changing the trace after
// Snapshot makes the replay diverge, which Restore reports.
type Snapshot struct {
	cfg   Config
	accs  []trace.Access
	steps uint64
	tick  uint64
}

// Snapshot records the system's position. It is legal between Steps of a
// started, unfinished run whose checks are clean; the system keeps running
// unaffected afterwards.
func (s *System) Snapshot() (*Snapshot, error) {
	if !s.ts.started {
		return nil, fmt.Errorf("sim: snapshot before Start")
	}
	if s.ts.finished {
		return nil, fmt.Errorf("sim: snapshot after Finish")
	}
	if s.runErr != nil {
		return nil, fmt.Errorf("sim: cannot snapshot after violation: %w", s.runErr)
	}
	return &Snapshot{cfg: s.cfg, accs: s.ts.accs, steps: s.ts.steps, tick: s.Tick()}, nil
}

// Restore brings a fresh System built from the same Config (compared
// exactly — geometry, timing, mode, backend and fault setup must all
// match) to the snapshot's position: it starts the snapshot's trace and
// replays its Steps. A replay that does not end at the snapshot's tick is
// an error. The snapshot is not consumed and can be restored again.
func (s *System) Restore(snap *Snapshot) error {
	if s.ts.started {
		return fmt.Errorf("sim: restore into a used System (build a fresh one)")
	}
	if s.cfg != snap.cfg {
		return fmt.Errorf("sim: snapshot configuration differs from system configuration")
	}
	if err := s.Start(snap.accs); err != nil {
		return err
	}
	for s.ts.steps < snap.steps {
		if _, err := s.Step(); err != nil {
			return fmt.Errorf("sim: replaying snapshot: %w", err)
		}
	}
	if s.Tick() != snap.tick {
		return fmt.Errorf("sim: replay of %d steps reached tick %d, snapshot was taken at tick %d (was the trace changed?)",
			snap.steps, s.Tick(), snap.tick)
	}
	return nil
}
