package frontend

import (
	"fmt"

	"hmccoal/internal/coalescer"
)

// warpLaneState is one captured open warp buffer.
type warpLaneState struct {
	reqs  []wreq
	since uint64
}

// warpSnap is an opaque deep copy of the warp unit's mutable state: every
// open warp buffer plus the shared stage's own snapshot.
type warpSnap struct {
	lanes []warpLaneState
	stage *coalescer.StageState
}

func (*warpSnap) frontendSnapshot() {}

// SaveState deep-copies the warp unit's mutable state; it refuses to
// snapshot after a latched conservation violation.
func (w *warp) SaveState() (Snapshot, error) {
	stage, err := w.Stage.SaveState()
	if err != nil {
		return nil, err
	}
	st := &warpSnap{lanes: make([]warpLaneState, len(w.lanes)), stage: stage}
	for i := range w.lanes {
		st.lanes[i] = warpLaneState{
			reqs:  append([]wreq(nil), w.lanes[i].reqs...),
			since: w.lanes[i].since,
		}
	}
	return st, nil
}

// RestoreState replays a snapshot into the warp unit, which must have been
// built from the same configuration.
func (w *warp) RestoreState(s Snapshot) error {
	st, ok := s.(*warpSnap)
	if !ok {
		return fmt.Errorf("frontend: %v snapshot restored into warp frontend", kindOf(s))
	}
	if len(st.lanes) != len(w.lanes) {
		return fmt.Errorf("frontend: snapshot has %d lanes, warp has %d", len(st.lanes), len(w.lanes))
	}
	if err := w.Stage.RestoreState(st.stage); err != nil {
		return err
	}
	for i := range w.lanes {
		w.lanes[i].reqs = append(w.lanes[i].reqs[:0], st.lanes[i].reqs...)
		w.lanes[i].since = st.lanes[i].since
	}
	return nil
}
