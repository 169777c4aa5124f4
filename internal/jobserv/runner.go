package jobserv

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	"hmccoal"
	"hmccoal/internal/soak"
)

// parkCheckInterval is how many simulator steps a single-run job advances
// between interruption checks: small enough that park latency is
// microseconds, large enough that the check never shows in a profile.
const parkCheckInterval = 4096

// realExec is the production executor: it dispatches a job to its kind's
// driver. An interrupted driver returns the cancellation cause as its
// error; finish turns park causes into a park.
func (d *Daemon) realExec(ctl execCtl, id string, spec Spec) execOutcome {
	switch spec.Kind {
	case KindSingle:
		return d.execSingle(ctl, spec)
	case KindSweep:
		return d.execSweep(ctl, id, spec)
	case KindSoak:
		return d.execSoak(ctl, id, spec)
	default:
		return execOutcome{err: fmt.Errorf("jobserv: unknown job kind %q", spec.Kind)}
	}
}

// simChoices parses the spec's backend, front-end and issue policy. Validate
// has already accepted them at admission.
func (s Spec) simChoices() (hmccoal.BackendKind, hmccoal.FrontendKind, hmccoal.SchedKind, error) {
	backend, err := hmccoal.ParseBackend(s.Backend)
	if err != nil {
		return 0, 0, 0, err
	}
	fe, err := hmccoal.ParseFrontend(s.Frontend)
	if err != nil {
		return 0, 0, 0, err
	}
	sched, err := hmccoal.ParseSched(s.Sched)
	return backend, fe, sched, err
}

// execSingle runs one benchmark under the two-phase coalescer, checking
// for interruption every parkCheckInterval steps. It keeps no resume
// state: a preempted or drained single re-runs from the start, the same
// path a crashed daemon's singles take, and the simulator's determinism
// makes the summary byte-identical to an uninterrupted run.
func (d *Daemon) execSingle(ctl execCtl, spec Spec) execOutcome {
	cfg := hmccoal.DefaultConfig()
	cfg.Mode = hmccoal.ModeTwoPhase
	cfg.Hierarchy.CPUs = spec.params().CPUs
	var err error
	if cfg.Backend, cfg.Frontend, cfg.Sched, err = spec.simChoices(); err != nil {
		return execOutcome{err: err}
	}
	accs, err := hmccoal.GenerateTrace(spec.Bench, spec.params())
	if err != nil {
		return execOutcome{err: err}
	}
	sys, err := hmccoal.NewSystem(cfg)
	if err != nil {
		return execOutcome{err: err}
	}
	if err := sys.Start(accs); err != nil {
		return execOutcome{err: err}
	}
	for {
		for i := 0; i < parkCheckInterval; i++ {
			done, err := sys.Step()
			if err != nil {
				return execOutcome{err: err}
			}
			if done {
				res, err := sys.Finish()
				if err != nil {
					return execOutcome{err: err}
				}
				return marshalResult(map[string]any{
					"kind":    KindSingle,
					"result":  res,
					"summary": res.Summary(),
				})
			}
		}
		if ctl.ctx.Err() != nil {
			return execOutcome{err: context.Cause(ctl.ctx)}
		}
	}
}

// execSweep runs one evaluation sweep grid through the public drivers.
// Every attempt — first run, post-preemption resume, post-crash re-run —
// executes with the same per-job checkpoint file, so completed groups
// restore instead of recomputing and the final output is byte-identical
// across any interruption history.
func (d *Daemon) execSweep(ctl execCtl, id string, spec Spec) execOutcome {
	backend, fe, sched, err := spec.simChoices()
	if err != nil {
		return execOutcome{err: err}
	}
	opt := hmccoal.SweepOptions{
		Workers:    d.opt.SweepWorkers,
		Batch:      spec.Batch,
		Backend:    backend,
		Frontend:   fe,
		Sched:      sched,
		Dispatch:   d.opt.Dispatch,
		Progress:   ctl.progress,
		Checkpoint: checkpointPath(ctl.dir, id, spec),
	}
	p := spec.params()
	ctx := ctl.ctx

	var payload map[string]any
	switch spec.Sweep {
	case "runall":
		runs, rerr := hmccoal.RunAllContext(ctx, p, opt)
		if rerr != nil {
			err = rerr
			break
		}
		payload = map[string]any{
			"runs":     runs,
			"figure8":  hmccoal.Figure8Table(runs),
			"figure15": hmccoal.Figure15Table(runs),
		}
	case "fig14":
		table, rerr := hmccoal.Figure14TableContext(ctx, p, spec.Timeouts, opt)
		if rerr != nil {
			err = rerr
			break
		}
		payload = map[string]any{"figure14": table}
	case "timeout":
		lat, rerr := hmccoal.TimeoutSweepContext(ctx, spec.Bench, p, spec.Timeouts, opt)
		if rerr != nil {
			err = rerr
			break
		}
		payload = map[string]any{"bench": spec.Bench, "latencies_ns": lat}
	case "mshr":
		eff, rerr := hmccoal.MSHRSweepContext(ctx, spec.Bench, p, spec.Entries, opt)
		if rerr != nil {
			err = rerr
			break
		}
		payload = map[string]any{"bench": spec.Bench, "coalescing_eff": eff}
	case "speedup":
		table, rerr := hmccoal.SpeedupTableContext(ctx, p, opt)
		if rerr != nil {
			err = rerr
			break
		}
		payload = map[string]any{"speedup": table}
	case "fault":
		rows, rerr := hmccoal.FaultSweepContext(ctx, spec.Bench, p, uint64(spec.Seed), spec.BERs, opt)
		if rerr != nil {
			err = rerr
			break
		}
		payload = map[string]any{
			"bench": spec.Bench,
			"rows":  rows,
			"table": hmccoal.FaultSweepTable(rows),
		}
	case "stride":
		runs, rerr := hmccoal.StrideLadderContext(ctx, p, opt)
		if rerr != nil {
			err = rerr
			break
		}
		payload = map[string]any{
			"runs":  runs,
			"table": hmccoal.StrideLadderTable(runs),
		}
	default:
		err = fmt.Errorf("jobserv: unknown sweep %q", spec.Sweep)
	}
	if err != nil {
		return execOutcome{err: err} // finish converts park-caused errors
	}
	payload["kind"] = KindSweep
	payload["sweep"] = spec.Sweep
	return marshalResult(payload)
}

// execSoak runs a seeded chaos campaign; its checkpoint makes every
// classified scenario durable, so interruptions only recompute scenarios
// that had not been classified yet.
func (d *Daemon) execSoak(ctl execCtl, id string, spec Spec) execOutcome {
	backend, fe, sched, err := spec.simChoices()
	if err != nil {
		return execOutcome{err: err}
	}
	rep, err := soak.Soak(ctl.ctx, soak.Options{
		Seed:       spec.Seed,
		Runs:       spec.Runs,
		Workers:    d.opt.SweepWorkers,
		Backend:    backend,
		Frontend:   fe,
		Sched:      sched,
		ReproDir:   filepath.Join(ctl.dir, "repros"),
		Progress:   ctl.progress,
		Checkpoint: checkpointPath(ctl.dir, id, spec),
	})
	if err != nil {
		return execOutcome{err: err}
	}
	return marshalResult(map[string]any{"kind": KindSoak, "report": rep})
}

// marshalResult renders a job's terminal payload. Go's json.Marshal sorts
// map keys, so identical data always yields identical bytes — the
// property the byte-identical recovery tests pin.
func marshalResult(payload map[string]any) execOutcome {
	raw, err := json.Marshal(payload)
	if err != nil {
		return execOutcome{err: fmt.Errorf("jobserv: encode result: %w", err)}
	}
	return execOutcome{result: raw}
}
