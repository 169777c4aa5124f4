package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"hmccoal"
	"hmccoal/internal/dsweep"
	"hmccoal/internal/jobserv"
)

// stack is the hmcservd service run in process: an HTTP jobserv server in
// front of a jobserv.Daemon with an fsync'd ledger in a scratch directory,
// whose sweep jobs dispatch to a dsweep.Coordinator that one in-process
// dsweep worker serves over loopback with hmccoal.SweepRunner. Clients
// reach it over exactly two connections: one that submits and one that
// polls.
type stack struct {
	dir    string
	tr     *tracer
	coord  *dsweep.Coordinator
	runner *hmccoal.SweepRunner
	daemon *jobserv.Daemon
	srv    *http.Server
	base   string

	submitter, poller *http.Client

	stopWorker context.CancelFunc
	workerDone chan error
	served     chan error

	mu     sync.Mutex
	cells  map[string]map[int]json.RawMessage // captured dispatch results
	groups int

	closeOnce sync.Once
	closeErr  error
}

// stackSlots is the daemon's slot count: with one worker slot behind the
// coordinator, at most two simulations run at once.
const stackSlots = 2

// startStack brings the service up with its state under scratch.
// workerSlots sizes the dsweep worker. A non-nil tracer wraps the
// coordinator's RunGroup (dsweep.rungroup spans) and the worker's group
// runner (dsweep.worker spans) and captures every dispatched cell.
func startStack(scratch string, workerSlots int, tr *tracer) (_ *stack, err error) {
	s := &stack{tr: tr, runner: hmccoal.NewSweepRunner(), cells: make(map[string]map[int]json.RawMessage)}
	if s.dir, err = os.MkdirTemp(scratch, "service-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	s.coord = dsweep.NewCoordinator(dsweep.Options{})
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go s.coord.Serve(cln)
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorker, s.workerDone = cancel, make(chan error, 1)
	run := dsweep.GroupRunner(s.runner.Run)
	if tr != nil {
		run = func(ctx context.Context, spec []byte, idxs []int) ([]json.RawMessage, error) {
			sp := tr.begin("dsweep.worker", -1)
			defer tr.end(sp)
			return s.runner.Run(ctx, spec, idxs)
		}
	}
	go func() {
		s.workerDone <- dsweep.Work(ctx, cln.Addr().String(), run, dsweep.WorkOptions{
			Name:  "perfbench",
			Slots: workerSlots,
			CacheStats: func() dsweep.CacheCounts {
				c := s.runner.CacheStats()
				return dsweep.CacheCounts{Hits: c.Hits, Misses: c.Misses, Evictions: c.Evictions}
			},
		})
	}()

	s.daemon, err = jobserv.NewDaemon(jobserv.Options{Dir: s.dir, Slots: stackSlots, Dispatch: s})
	if err != nil {
		return nil, err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + hln.Addr().String()
	s.srv = &http.Server{Handler: jobserv.NewServer(s.daemon)}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(hln) }()
	s.submitter = oneConnClient()
	s.poller = oneConnClient()
	return s, nil
}

// oneConnClient is an HTTP client that keeps a single connection alive.
func oneConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   time.Minute,
	}
}

// RunGroup makes the stack the daemon's dispatcher: it forwards to the
// coordinator, counting groups and capturing cells for the serial replay
// when traced.
func (s *stack) RunGroup(ctx context.Context, spec []byte, idxs []int) ([]json.RawMessage, error) {
	sp := s.tr.begin("dsweep.rungroup", -1)
	cells, err := s.coord.RunGroup(ctx, spec, idxs)
	s.tr.end(sp)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groups++
	if err != nil || s.tr == nil {
		return cells, err
	}
	var ss hmccoal.SweepSpec
	if json.Unmarshal(spec, &ss) == nil && len(cells) == len(idxs) {
		key := cellKey(ss)
		m := s.cells[key]
		if m == nil {
			m = make(map[int]json.RawMessage)
			s.cells[key] = m
		}
		for k, i := range idxs {
			m[i] = cells[k]
		}
	}
	return cells, nil
}

// dispatched returns the cells captured for the grid with key.
func (s *stack) dispatched(key string) map[int]json.RawMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cells[key]
}

// groupCount is the number of groups dispatched so far.
func (s *stack) groupCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.groups
}

// close stops every part of the stack, waits for its goroutines and
// removes its state directory. Calls after the first return its result.
func (s *stack) close() error {
	s.closeOnce.Do(func() { s.closeErr = s.shutdown() })
	return s.closeErr
}

func (s *stack) shutdown() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, c := range []*http.Client{s.submitter, s.poller} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if s.daemon != nil {
		errs = append(errs, s.daemon.Close())
	}
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	if s.stopWorker != nil {
		s.stopWorker()
		select {
		case err := <-s.workerDone:
			if err != nil && !errors.Is(err, context.Canceled) {
				errs = append(errs, fmt.Errorf("dsweep worker: %w", err))
			}
		case <-time.After(20 * time.Second):
			errs = append(errs, errors.New("dsweep worker did not stop"))
		}
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// submit POSTs one job over the submitting connection. A refusal returns
// the HTTP status with an empty id.
func (s *stack) submit(tenant string, spec jobserv.Spec) (string, int, error) {
	body, err := json.Marshal(map[string]any{"tenant": tenant, "priority": 0, "spec": spec})
	if err != nil {
		return "", 0, err
	}
	resp, err := s.submitter.Post(s.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, nil
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return "", resp.StatusCode, err
	}
	return out.ID, resp.StatusCode, nil
}

// get fetches path over the polling connection.
func (s *stack) get(path string) ([]byte, error) {
	resp, err := s.poller.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// wait long-polls job id for up to timeout over the polling connection:
// it returns as soon as the job is terminal, so the poller sees the oldest
// outstanding job finish without a polling delay and paces its rounds
// over the others.
func (s *stack) wait(id string, timeout time.Duration) {
	resp, err := s.poller.Get(fmt.Sprintf("%s/api/v1/jobs/%s/wait?timeout=%s", s.base, id, timeout))
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// jobReq is one job the load generator sends.
type jobReq struct {
	tenant string
	spec   jobserv.Spec
}

// loadResult is the outcome of one open-loop schedule.
type loadResult struct {
	recs        []openLoopRecord
	docs        [][]byte // each request's result document (nil unless done); equal documents share one copy
	outstanding []int    // outstanding requests seen at each send
	submitMs    []float64
	refused     int
	queueMax    int
	running     []float64 // sampled running-slot shares (traced only)
	wall        time.Duration
}

// add appends another schedule's outcome, as if the two had run back to
// back.
func (l *loadResult) add(o loadResult) {
	l.recs = append(l.recs, o.recs...)
	l.docs = append(l.docs, o.docs...)
	l.outstanding = append(l.outstanding, o.outstanding...)
	l.submitMs = append(l.submitMs, o.submitMs...)
	l.running = append(l.running, o.running...)
	l.refused += o.refused
	l.queueMax = max(l.queueMax, o.queueMax)
	l.wall += o.wall
}

// drainLimit bounds how long a schedule waits for its last jobs.
const drainLimit = 60 * time.Second

// pollWindow is how many of the oldest outstanding jobs each polling
// round looks at. The daemon starts jobs of equal priority in submission
// order on stackSlots slots, so only the oldest few can have finished;
// looking further would make each round cost more the longer the queue
// is, and a backlog would then slow the service that caused it.
const pollWindow = 4 * stackSlots

// openLoop sends reqs at a fixed rate per second from one submitting
// connection, regardless of how fast jobs complete (rate 0 sends them all
// at once), while one polling connection watches every outstanding job
// until it is terminal. It returns when every job has settled or the
// drain limit has passed; unsettled jobs count as failed.
func (s *stack) openLoop(reqs []jobReq, rate float64) loadResult {
	res := loadResult{
		recs:     make([]openLoopRecord, len(reqs)),
		docs:     make([][]byte, len(reqs)),
		submitMs: make([]float64, 0, len(reqs)),
	}
	type pend struct {
		i  int
		id string
	}
	var (
		mu      sync.Mutex
		pending []pend
		sentAll bool
	)
	// Equal result documents share one copy, so a long schedule holds only
	// its distinct results: the harness's heap stays small and its garbage
	// collection does not grow over the run and slow the service it times.
	seen := map[[sha256.Size]byte][]byte{}
	wake := make(chan struct{}, 1)
	start := time.Now()
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		deadline := time.Time{}
		for {
			mu.Lock()
			batch := append([]pend(nil), pending[:min(len(pending), pollWindow)]...)
			finished := sentAll && len(pending) == 0
			if sentAll && deadline.IsZero() {
				deadline = time.Now().Add(drainLimit)
			}
			mu.Unlock()
			if finished || (!deadline.IsZero() && time.Now().After(deadline)) {
				return
			}
			if s.tr != nil {
				st := s.daemon.Status()
				res.queueMax = max(res.queueMax, st.Queued)
				res.running = append(res.running, float64(st.Running)/stackSlots)
			}
			if len(batch) == 0 {
				select {
				case <-wake:
				case <-time.After(5 * time.Millisecond):
				}
				continue
			}
			var settled []int
			for _, p := range batch {
				raw, err := s.get("/api/v1/jobs/" + p.id)
				var v jobserv.JobView
				if err == nil {
					err = json.Unmarshal(raw, &v)
				}
				if err != nil || !v.State.Terminal() {
					continue
				}
				res.recs[p.i].done = time.Since(start)
				if v.State == jobserv.StateDone {
					if doc, err := s.get("/api/v1/jobs/" + p.id + "/result"); err == nil {
						sum := sha256.Sum256(doc)
						if first, ok := seen[sum]; ok {
							doc = first
						} else {
							seen[sum] = doc
						}
						res.docs[p.i] = doc
						res.recs[p.i].ok = true
					}
				}
				settled = append(settled, p.i)
			}
			mu.Lock()
			for _, i := range settled {
				for k := range pending {
					if pending[k].i == i {
						pending = append(pending[:k], pending[k+1:]...)
						break
					}
				}
			}
			var oldest string
			if len(pending) > 0 {
				oldest = pending[0].id
			}
			mu.Unlock()
			if oldest != "" {
				s.wait(oldest, 2*time.Millisecond)
			}
		}
	}()

	for i, r := range reqs {
		var due time.Duration
		if rate > 0 {
			due = time.Duration(float64(i) / rate * float64(time.Second))
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		mu.Lock()
		res.outstanding = append(res.outstanding, len(pending))
		mu.Unlock()
		sent := time.Since(start)
		id, _, err := s.submit(r.tenant, r.spec)
		res.submitMs = append(res.submitMs, ms(time.Since(start)-sent))
		res.recs[i].due, res.recs[i].sent = due, sent
		if err != nil || id == "" {
			res.refused++
			continue
		}
		mu.Lock()
		pending = append(pending, pend{i: i, id: id})
		mu.Unlock()
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	mu.Lock()
	sentAll = true
	mu.Unlock()
	<-pollDone
	res.wall = time.Since(start)
	return res
}

// resetCounts forgets the groups dispatched so far (the warm-up's).
func (s *stack) resetCounts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groups = 0
}
