package jobserv

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hmccoal"
	"hmccoal/internal/durable"
)

// Options tunes a Daemon.
type Options struct {
	// Dir is the state directory: ledger.jsonl, results/, ckpt/, repros/.
	Dir string
	// Slots is the number of jobs executing concurrently. 0 means 1.
	Slots int
	// MaxQueue caps jobs waiting for a slot across all tenants (the
	// daemon-wide backpressure bound). 0 means DefaultMaxQueue.
	MaxQueue int
	// Quota is the per-tenant admission policy.
	Quota Quota
	// JobTimeout is the per-attempt watchdog: a job running longer is
	// cancelled and failed with a structured timeout error, so a hung
	// simulation can never pin a slot forever. 0 disables the watchdog.
	JobTimeout time.Duration
	// SweepWorkers sizes the in-process pool sweep jobs run on (0 = all
	// cores). With Dispatch set, sweep jobs go to remote workers instead.
	SweepWorkers int
	// Dispatch, when non-nil, ships sweep job groups to a distributed
	// coordinator (the dsweep plane) instead of simulating in-process.
	Dispatch hmccoal.Dispatcher
	// Logf, when non-nil, receives daemon lifecycle chatter.
	Logf func(format string, args ...any)

	// now and exec are test seams: a fake clock makes rate-limit tests
	// deterministic, a fake executor makes scheduling tests instant.
	now  func() time.Time
	exec execFunc
}

// DefaultMaxQueue is the default daemon-wide pending cap.
const DefaultMaxQueue = 1024

func (o Options) slots() int {
	if o.Slots < 1 {
		return 1
	}
	return o.Slots
}

func (o Options) maxQueue() int {
	if o.MaxQueue <= 0 {
		return DefaultMaxQueue
	}
	return o.MaxQueue
}

func (o Options) clock() func() time.Time {
	if o.now != nil {
		return o.now
	}
	return time.Now
}

// Cancellation causes. finish maps the cause of a cancelled execution to
// the job's next state: park causes re-queue the job, cancel and timeout
// are terminal.
var (
	errPark      = errors.New("jobserv: preempted")
	errDrainPark = errors.New("jobserv: daemon draining")
	errCancelReq = errors.New("jobserv: canceled by client")
	errTimeout   = errors.New("jobserv: watchdog timeout")
)

// execCtl is what the daemon hands an executing job.
type execCtl struct {
	ctx      context.Context
	park     *parkState // in-memory resume state from a previous preemption
	progress func(done, total int)
	dir      string // daemon state dir (checkpoints, repro artifacts)
}

// execOutcome is one execution attempt's verdict: exactly one of result
// (terminal success), park (interrupted, resumable) or err.
type execOutcome struct {
	result []byte
	park   *parkState
	err    error
}

// execFunc runs one attempt of a job. The production implementation is
// (*Daemon).realExec in runner.go.
type execFunc func(ctl execCtl, id string, spec Spec) execOutcome

// runningJob tracks one executing attempt.
type runningJob struct {
	job      *Job
	cancel   context.CancelCauseFunc
	ctx      context.Context
	watchdog *time.Timer
}

// Daemon is the job service: admission, scheduling, preemption, crash
// recovery and drain around a slot pool of simulation executors.
type Daemon struct {
	opt Options
	led *ledger

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	pending  []*Job // queued and parked jobs awaiting a slot
	running  map[string]*runningJob
	tenants  map[string]*tenant
	nextSeq  uint64
	draining bool
	closed   bool
	wg       sync.WaitGroup
}

// NewDaemon opens (or adopts) the state directory, replays the job
// ledger, re-queues every job the previous process left unfinished and
// starts scheduling. Jobs that were running at the crash are re-run:
// sweep and soak jobs resume from their JSONL checkpoints (completed
// groups restore, only pending work recomputes), single runs re-execute
// from scratch — all byte-identical by the simulator's determinism
// contract. Completed jobs keep their results and are never re-run.
func NewDaemon(opt Options) (*Daemon, error) {
	if opt.Dir == "" {
		return nil, errors.New("jobserv: Options.Dir is required")
	}
	for _, sub := range []string{"", "results", "ckpt", "repros"} {
		if err := os.MkdirAll(filepath.Join(opt.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("jobserv: state dir: %w", err)
		}
	}
	led, err := openLedger(filepath.Join(opt.Dir, "ledger.jsonl"))
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		opt:     opt,
		led:     led,
		jobs:    make(map[string]*Job),
		running: make(map[string]*runningJob),
		tenants: make(map[string]*tenant),
	}
	d.cond = sync.NewCond(&d.mu)
	if d.opt.exec == nil {
		d.opt.exec = d.realExec
	}
	if err := d.recover(); err != nil {
		led.close()
		return nil, err
	}
	d.mu.Lock()
	d.scheduleLocked()
	d.mu.Unlock()
	return d, nil
}

func (d *Daemon) logf(format string, args ...any) {
	if d.opt.Logf != nil {
		d.opt.Logf(format, args...)
	}
}

// recover rebuilds the in-memory queue from the ledger.
func (d *Daemon) recover() error {
	evs, err := replayLedger(filepath.Join(d.opt.Dir, "ledger.jsonl"))
	if err != nil {
		return err
	}
	for _, ev := range evs {
		j := d.jobs[ev.ID]
		switch ev.Type {
		case evSubmit:
			if j != nil || ev.Spec == nil {
				continue
			}
			d.nextSeq++
			d.jobs[ev.ID] = &Job{
				ID:       ev.ID,
				Tenant:   ev.Tenant,
				Priority: ev.Priority,
				Spec:     *ev.Spec,
				state:    StateQueued,
				order:    d.nextSeq,
			}
		case evStart, evResume:
			if j != nil {
				j.state = StateRunning
				j.attempts++
			}
		case evPark:
			if j != nil {
				j.state = StateParked
				j.preemptions++
			}
		case evDone:
			if j != nil {
				j.state = StateDone
			}
		case evFail:
			if j != nil {
				j.state = StateFailed
				j.err = ev.Error
			}
		case evCancel:
			if j != nil {
				j.state = StateCanceled
			}
		}
	}
	// Jobs the dead process was running restart as queued: their durable
	// checkpoints carry completed work, and any in-memory snapshot died
	// with the process.
	var adopted []*Job
	for _, j := range d.jobs {
		if j.state == StateRunning {
			j.state = StateQueued
		}
		if j.state == StateQueued || j.state == StateParked {
			adopted = append(adopted, j)
			d.tenantLocked(j.Tenant).queued++
		}
	}
	sort.Slice(adopted, func(a, b int) bool { return adopted[a].order < adopted[b].order })
	d.pending = adopted
	if len(d.jobs) > 0 {
		d.logf("jobserv: adopted ledger: %d jobs, %d pending", len(d.jobs), len(adopted))
	}
	return nil
}

// Submit admits one job, durably records it and schedules it. The error,
// when non-nil, is an *AdmitError carrying the structured refusal.
func (d *Daemon) Submit(tenantName string, priority int, spec Spec) (string, error) {
	if tenantName == "" {
		return "", &AdmitError{Code: CodeBadSpec, Message: "tenant is required"}
	}
	if err := spec.Validate(); err != nil {
		return "", &AdmitError{Code: CodeBadSpec, Message: err.Error(), Tenant: tenantName}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining || d.closed {
		return "", &AdmitError{Code: CodeDraining, Message: "daemon is draining; submit to another instance", Tenant: tenantName}
	}
	if len(d.pending) >= d.opt.maxQueue() {
		return "", &AdmitError{
			Code:    CodeQueueFull,
			Message: fmt.Sprintf("%d jobs pending, daemon cap is %d", len(d.pending), d.opt.maxQueue()),
			Tenant:  tenantName,
		}
	}
	tn := d.tenantLocked(tenantName)
	if aerr := tn.admit(d.opt.Quota, tenantName, d.opt.clock()()); aerr != nil {
		return "", aerr
	}
	d.nextSeq++
	j := &Job{
		ID:       fmt.Sprintf("j-%06d", d.nextSeq),
		Tenant:   tenantName,
		Priority: priority,
		Spec:     spec,
		state:    StateQueued,
		order:    d.nextSeq,
	}
	if err := d.led.append(event{Type: evSubmit, ID: j.ID, Tenant: j.Tenant, Priority: j.Priority, Spec: &j.Spec}); err != nil {
		return "", &AdmitError{Code: "ledger_error", Message: err.Error(), Tenant: tenantName}
	}
	d.jobs[j.ID] = j
	d.pending = append(d.pending, j)
	tn.queued++
	d.scheduleLocked()
	return j.ID, nil
}

// scheduleLocked fills free slots from the pending queue and preempts for
// higher-priority arrivals. Caller holds d.mu.
func (d *Daemon) scheduleLocked() {
	if d.draining || d.closed {
		return
	}
	for len(d.running) < d.opt.slots() {
		j := d.popLocked()
		if j == nil {
			break
		}
		if !d.startLocked(j) {
			break // unwritable ledger; do not spin on the same job
		}
	}
	d.maybePreemptLocked()
}

// maybePreemptLocked parks the lowest-priority running job when a
// strictly higher-priority job is waiting with no free slot. The victim's
// slot frees once its executor acknowledges the park (sweeps at the next
// group boundary, single runs at the next step-batch boundary), and the
// scheduler then starts the waiting job.
func (d *Daemon) maybePreemptLocked() {
	if len(d.running) < d.opt.slots() {
		return
	}
	best := d.bestPendingLocked()
	if best == nil {
		return
	}
	var victim *runningJob
	for _, r := range d.running {
		if r.job.preempting {
			continue
		}
		if victim == nil || r.job.Priority < victim.job.Priority {
			victim = r
		}
	}
	if victim == nil || victim.job.Priority >= best.Priority {
		return
	}
	victim.job.preempting = true
	d.logf("jobserv: preempting %s (priority %d) for %s (priority %d)",
		victim.job.ID, victim.job.Priority, best.ID, best.Priority)
	victim.cancel(errPark)
}

// startLocked launches one attempt of j on a slot, reporting whether the
// attempt could be durably recorded. Caller holds d.mu.
func (d *Daemon) startLocked(j *Job) bool {
	evType := evStart
	if j.state == StateParked {
		evType = evResume
	}
	if err := d.led.append(event{Type: evType, ID: j.ID}); err != nil {
		// An unwritable ledger cannot record the attempt; leave the job
		// queued rather than run work the ledger does not know about.
		d.logf("jobserv: %s: %v", j.ID, err)
		d.pending = append(d.pending, j)
		return false
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	r := &runningJob{job: j, cancel: cancel, ctx: ctx}
	if d.opt.JobTimeout > 0 {
		r.watchdog = time.AfterFunc(d.opt.JobTimeout, func() { cancel(errTimeout) })
	}
	park := j.park
	j.park = nil
	j.state = StateRunning
	j.attempts++
	j.preempting = false
	d.running[j.ID] = r
	d.tenantLocked(j.Tenant).queued--
	d.tenantLocked(j.Tenant).running++

	ctl := execCtl{
		ctx:  ctx,
		park: park,
		dir:  d.opt.Dir,
		progress: func(done, total int) {
			d.mu.Lock()
			j.progressDone, j.progressTotal = done, total
			d.mu.Unlock()
		},
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		out := d.opt.exec(ctl, j.ID, j.Spec)
		d.finish(j, r, out)
	}()
	return true
}

// finish settles one execution attempt: park causes re-queue the job,
// everything else is terminal. The durability order is load-bearing —
// result file before done record, every record fsync'd before the state
// change becomes visible.
func (d *Daemon) finish(j *Job, r *runningJob, out execOutcome) {
	if r.watchdog != nil {
		r.watchdog.Stop()
	}
	cause := context.Cause(r.ctx)

	// An executor interrupted by a park request that could not produce
	// in-memory resume state (sweeps, soaks — their checkpoints are
	// durable) still parks: the error is the interruption, not a failure.
	if out.err != nil && out.park == nil &&
		(errors.Is(cause, errPark) || errors.Is(cause, errDrainPark)) {
		out = execOutcome{park: &parkState{}}
	}

	var ev event
	var state State
	switch {
	case out.park != nil:
		ev = event{Type: evPark, ID: j.ID}
		state = StateParked
	case out.err != nil && errors.Is(cause, errCancelReq):
		ev = event{Type: evCancel, ID: j.ID}
		state = StateCanceled
	case out.err != nil && errors.Is(cause, errTimeout):
		ev = event{Type: evFail, ID: j.ID,
			Error: fmt.Sprintf("watchdog: job exceeded the %v timeout", d.opt.JobTimeout)}
		state = StateFailed
	case out.err != nil:
		ev = event{Type: evFail, ID: j.ID, Error: out.err.Error()}
		state = StateFailed
	default:
		if err := durable.WriteFileAtomic(d.resultPath(j.ID), out.result); err != nil {
			ev = event{Type: evFail, ID: j.ID, Error: fmt.Sprintf("write result: %v", err)}
			state = StateFailed
			break
		}
		ev = event{Type: evDone, ID: j.ID}
		state = StateDone
	}
	if err := d.led.append(ev); err != nil {
		d.logf("jobserv: %s: %v", j.ID, err)
	} else if state != StateParked {
		d.removeCheckpoint(j)
	}

	d.mu.Lock()
	delete(d.running, j.ID)
	tn := d.tenantLocked(j.Tenant)
	tn.running--
	j.state = state
	switch state {
	case StateParked:
		j.park = out.park
		j.preemptions++
		tn.queued++
		d.pending = append(d.pending, j)
	case StateFailed:
		j.err = ev.Error
	}
	d.scheduleLocked()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// removeCheckpoint deletes a sweep or soak job's checkpoint file. Call it
// only once the job's terminal ledger record is durable, never on park:
// the checkpoint is a parked or crashed job's resume state, but a settled
// job's results live in its result file, and the checkpoint would keep a
// second copy in the state directory forever.
func (d *Daemon) removeCheckpoint(j *Job) {
	if err := os.Remove(checkpointPath(d.opt.Dir, j.ID, j.Spec)); err != nil && !errors.Is(err, os.ErrNotExist) {
		d.logf("jobserv: %s: %v", j.ID, err)
	}
}

// checkpointPath is where a sweep or soak job keeps its resume state.
func checkpointPath(dir, id string, spec Spec) string {
	name := spec.Sweep
	if spec.Kind == KindSoak {
		name = "soak"
	}
	return filepath.Join(dir, "ckpt", id+"."+name)
}

func (d *Daemon) resultPath(id string) string {
	return filepath.Join(d.opt.Dir, "results", id+".json")
}

// Get returns the client view of one job.
func (d *Daemon) Get(id string) (JobView, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// List returns every job (tenant-filtered when tenant != ""), in
// admission order.
func (d *Daemon) List(tenant string) []JobView {
	d.mu.Lock()
	defer d.mu.Unlock()
	views := make([]JobView, 0, len(d.jobs))
	order := make([]*Job, 0, len(d.jobs))
	for _, j := range d.jobs {
		if tenant == "" || j.Tenant == tenant {
			order = append(order, j)
		}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].order < order[b].order })
	for _, j := range order {
		views = append(views, j.view())
	}
	return views
}

// Result returns a completed job's result bytes.
func (d *Daemon) Result(id string) ([]byte, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	var state State
	if ok {
		state = j.state
	}
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("jobserv: no such job %s", id)
	}
	if state != StateDone {
		return nil, fmt.Errorf("jobserv: job %s is %s, not done", id, state)
	}
	return os.ReadFile(d.resultPath(id))
}

// Cancel removes a queued job or interrupts a running one. Terminal jobs
// cannot be cancelled.
func (d *Daemon) Cancel(id string) error {
	d.mu.Lock()
	j, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("jobserv: no such job %s", id)
	}
	switch j.state {
	case StateQueued, StateParked:
		d.removePendingLocked(j)
		d.tenantLocked(j.Tenant).queued--
		j.state = StateCanceled
		j.park = nil
		d.cond.Broadcast()
		d.mu.Unlock()
		if err := d.led.append(event{Type: evCancel, ID: id}); err != nil {
			d.logf("jobserv: %s: %v", id, err)
		} else {
			d.removeCheckpoint(j)
		}
		return nil
	case StateRunning:
		r := d.running[id]
		d.mu.Unlock()
		if r != nil {
			r.cancel(errCancelReq)
		}
		return nil
	default:
		state := j.state
		d.mu.Unlock()
		return fmt.Errorf("jobserv: job %s is already %s", id, state)
	}
}

// WaitJob blocks until the job reaches a terminal state or parks (parked
// is reported so drain callers see progress), up to timeout. It returns
// the final view and whether the wait was satisfied.
func (d *Daemon) WaitJob(id string, timeout time.Duration) (JobView, bool) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer timer.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		j, ok := d.jobs[id]
		if !ok {
			return JobView{}, false
		}
		if j.state.Terminal() {
			return j.view(), true
		}
		if time.Now().After(deadline) {
			return j.view(), false
		}
		d.cond.Wait()
	}
}

// DaemonStatus is the daemon-wide observability snapshot.
type DaemonStatus struct {
	Queued   int  `json:"queued"` // includes parked jobs awaiting resume
	Parked   int  `json:"parked"`
	Running  int  `json:"running"`
	Done     int  `json:"done"`
	Failed   int  `json:"failed"`
	Canceled int  `json:"canceled"`
	Draining bool `json:"draining"`

	Tenants map[string]TenantStatus `json:"tenants,omitempty"`
}

// Status snapshots the daemon.
func (d *Daemon) Status() DaemonStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := DaemonStatus{Draining: d.draining, Tenants: make(map[string]TenantStatus)}
	for _, j := range d.jobs {
		switch j.state {
		case StateQueued:
			s.Queued++
		case StateParked:
			s.Queued++
			s.Parked++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateCanceled:
			s.Canceled++
		}
	}
	for name, tn := range d.tenants {
		s.Tenants[name] = TenantStatus{Queued: tn.queued, Running: tn.running}
	}
	return s
}

// Drain gracefully shuts the daemon down: admission stops (submits get a
// structured 503), running jobs are asked to park at their next safe
// point, and Drain returns once every slot has settled — every job either
// finished, parked durably, or (single runs) returned to the queue for a
// deterministic re-run. The ledger then holds everything a fresh daemon
// needs to adopt the queue. ctx bounds the wait.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	for _, r := range d.running {
		r.cancel(errDrainPark)
	}
	d.mu.Unlock()

	settled := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(settled)
	}()
	var err error
	select {
	case <-settled:
	case <-ctx.Done():
		err = fmt.Errorf("jobserv: drain: %w", ctx.Err())
	}

	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	if cerr := d.led.close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// Close is Drain without a bound — for tests and clean exits.
func (d *Daemon) Close() error { return d.Drain(context.Background()) }
