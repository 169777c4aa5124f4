package dsweep

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"
)

// Options tunes a Coordinator.
type Options struct {
	// Lease bounds how long a worker may hold one job group: a worker
	// silent for Lease after receiving a group is presumed dead, its
	// connection is closed and the group is requeued for the surviving
	// workers. Zero means DefaultLease. Set it above the worst-case group
	// run time — a healthy-but-slow worker that blows the lease has its
	// group recomputed elsewhere (correct, but wasted work).
	Lease time.Duration
	// MaxAttempts caps how many workers may be lost on one group before
	// the group is failed instead of requeued, so a group that reliably
	// crashes its host cannot starve the sweep forever. Zero means
	// DefaultMaxAttempts.
	MaxAttempts int
	// Token, when non-empty, authenticates workers: a Hello whose token
	// does not match (constant-time compare) is answered with Bye,
	// counted in Status().AuthRejects and disconnected — without
	// disturbing the campaign the authenticated workers are running. An
	// empty Token accepts every worker (the trusted-network default).
	Token string
	// IOTimeout bounds every frame write (hello reply, job, bye) and the
	// handshake read, so a stalled or half-open peer can never wedge a
	// connection handler. Idle waits — a handshaked worker between jobs —
	// remain unbounded by design, covered by TCP keepalives. 0 means
	// DefaultIOTimeout.
	IOTimeout time.Duration
	// Logf, when non-nil, receives coordinator lifecycle chatter (worker
	// connects, losses, requeues). It must be safe for concurrent use.
	Logf func(format string, args ...any)
}

// Defaults for Options.
const (
	DefaultLease       = 2 * time.Minute
	DefaultMaxAttempts = 3
)

func (o Options) lease() time.Duration {
	if o.Lease <= 0 {
		return DefaultLease
	}
	return o.Lease
}

func (o Options) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return o.MaxAttempts
}

func (o Options) ioTimeout() time.Duration {
	if o.IOTimeout <= 0 {
		return DefaultIOTimeout
	}
	return o.IOTimeout
}

// groupOutcome is one group's terminal state.
type groupOutcome struct {
	cells []json.RawMessage
	err   error
}

// group is one enqueued job group. Its lifecycle is queued → leased →
// settled, with leased → queued again on every worker loss (requeue).
type group struct {
	id       uint64
	spec     []byte
	idxs     []int
	attempts int  // workers lost while holding this group
	settled  bool // outcome delivered (or caller gone); late outcomes are discarded
	done     chan groupOutcome
}

// workerStats aggregates one worker name's history across connections.
type workerStats struct {
	connected  int // live handshaked connections bearing this name
	connects   uint64
	reconnects uint64
	completed  uint64      // groups delivered
	jobs       uint64      // grid indices delivered
	fails      uint64      // groups reported as deterministic failures
	cache      CacheCounts // last counters reported in a Result frame
}

// leaseRec is one in-flight group's lease: who holds it and since when.
type leaseRec struct {
	worker string
	since  time.Time
}

// Coordinator owns a distributed sweep's pending job groups and serves
// them to worker connections with work-stealing dispatch: every Ready
// worker pulls the oldest pending group, so fast workers naturally take
// more of the grid. It implements the sweep layer's Dispatcher contract —
// RunGroup blocks until some worker completes the group, across any
// number of requeues.
//
// A Coordinator is safe for concurrent use; one instance serves all of a
// process's sweeps in sequence (grid identity travels inside the opaque
// spec, so interleaved grids cannot be confused).
type Coordinator struct {
	opt Options

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []*group // pending groups; requeues go to the front
	nextID      uint64
	closed      bool
	listeners   []net.Listener
	workers     int // handshaked worker connections
	authRejects uint64
	reconnects  uint64
	requeues    uint64
	perWorker   map[string]*workerStats
	inflight    map[uint64]*leaseRec
	handlers    sync.WaitGroup // live Handle calls, for the Close drain
}

// NewCoordinator builds a Coordinator with the given options.
func NewCoordinator(opt Options) *Coordinator {
	c := &Coordinator{
		opt:       opt,
		perWorker: make(map[string]*workerStats),
		inflight:  make(map[uint64]*leaseRec),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// Workers reports the number of handshaked worker connections.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers
}

// WorkerStatus is one worker name's row in a Status snapshot.
type WorkerStatus struct {
	Name       string
	Connected  bool
	Connects   uint64 // handshakes, including reconnects
	Reconnects uint64
	Completed  uint64      // groups delivered
	Jobs       uint64      // grid indices delivered (throughput)
	Fails      uint64      // deterministic group failures reported
	Cache      CacheCounts // trace-cache counters from the last Result frame
	LeaseAge   time.Duration
}

// Status is a point-in-time snapshot of a coordinator's campaign: queue
// depth, in-flight leases, per-worker throughput and the fault counters
// (auth rejects, reconnects, requeues). It is the observability hook a
// serving daemon fronts; hmccoal -serve prints it on SIGUSR1.
type Status struct {
	Queued      int // groups waiting for a puller
	InFlight    int // groups currently leased
	Workers     int // connected worker connections
	AuthRejects uint64
	Reconnects  uint64
	Requeues    uint64
	PerWorker   []WorkerStatus // sorted by name
}

// Status snapshots the coordinator's current state.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		Queued:      len(c.queue),
		InFlight:    len(c.inflight),
		Workers:     c.workers,
		AuthRejects: c.authRejects,
		Reconnects:  c.reconnects,
		Requeues:    c.requeues,
	}
	oldest := make(map[string]time.Time, len(c.inflight))
	for _, lr := range c.inflight {
		if t, ok := oldest[lr.worker]; !ok || lr.since.Before(t) {
			oldest[lr.worker] = lr.since
		}
	}
	for name, ws := range c.perWorker {
		row := WorkerStatus{
			Name:       name,
			Connected:  ws.connected > 0,
			Connects:   ws.connects,
			Reconnects: ws.reconnects,
			Completed:  ws.completed,
			Jobs:       ws.jobs,
			Fails:      ws.fails,
			Cache:      ws.cache,
		}
		if t, ok := oldest[name]; ok {
			row.LeaseAge = time.Since(t)
		}
		s.PerWorker = append(s.PerWorker, row)
	}
	sort.Slice(s.PerWorker, func(i, j int) bool { return s.PerWorker[i].Name < s.PerWorker[j].Name })
	return s
}

// String renders a Status as the multi-line stderr block the -serve
// SIGUSR1 handler prints.
func (s Status) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dsweep status: %d queued, %d in flight, %d workers connected, %d auth rejects, %d reconnects, %d requeues",
		s.Queued, s.InFlight, s.Workers, s.AuthRejects, s.Reconnects, s.Requeues)
	for _, w := range s.PerWorker {
		state := "gone"
		if w.Connected {
			state = "connected"
		}
		fmt.Fprintf(&b, "\n  %s: %s, %d connects (%d reconnects), %d groups (%d jobs), %d fails",
			w.Name, state, w.Connects, w.Reconnects, w.Completed, w.Jobs, w.Fails)
		if c := w.Cache; c.Hits+c.Misses+c.Evictions > 0 {
			fmt.Fprintf(&b, ", trace cache %d hits / %d misses / %d evictions", c.Hits, c.Misses, c.Evictions)
		}
		if w.LeaseAge > 0 {
			fmt.Fprintf(&b, ", lease age %v", w.LeaseAge.Round(time.Millisecond))
		}
	}
	return b.String()
}

// Serve accepts worker connections on ln until the coordinator is
// closed, handling each in its own goroutine. It returns nil once Close
// shuts the listener down.
func (c *Coordinator) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return errors.New("dsweep: coordinator closed")
	}
	c.listeners = append(c.listeners, ln)
	c.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("dsweep: accept: %w", err)
		}
		go c.Handle(conn)
	}
}

// closeDrainGrace bounds how long Close waits for worker connections to
// drain their goodbye. Healthy workers Bye within a round-trip; the grace
// only matters when one is hung or mid-group, and forfeiting its farewell
// then is fine — any group it held was already requeued or settled.
const closeDrainGrace = 5 * time.Second

// Close shuts the coordinator down: listeners close, still-queued groups
// (and their blocked RunGroup callers) fail with a closed-coordinator
// error, and worker connections drain through the protocol — each
// handler's next take returns nil, so the worker gets a clean Bye rather
// than a connection reset. Close waits up to closeDrainGrace for the
// handlers to finish that farewell, then returns regardless.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	queued := c.queue
	c.queue = nil
	lns := c.listeners
	c.cond.Broadcast()
	c.mu.Unlock()

	for _, g := range queued {
		c.deliver(g, groupOutcome{err: errors.New("dsweep: coordinator closed")})
	}
	for _, ln := range lns {
		ln.Close()
	}

	drained := make(chan struct{})
	go func() {
		c.handlers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(closeDrainGrace):
		c.logf("dsweep: close: gave up waiting for worker connections to drain")
	}
	return nil
}

// RunGroup enqueues one job group and blocks until a worker completes it
// (across any number of requeues) or ctx is cancelled. It is the sweep
// layer's remote dispatcher: spec is the opaque JSON grid description,
// idxs the grid indices to execute, and the result is one JSON cell per
// index, in index order.
func (c *Coordinator) RunGroup(ctx context.Context, spec []byte, idxs []int) ([]json.RawMessage, error) {
	g := &group{spec: spec, idxs: idxs, done: make(chan groupOutcome, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("dsweep: coordinator closed")
	}
	c.nextID++
	g.id = c.nextID
	c.queue = append(c.queue, g)
	c.cond.Signal()
	c.mu.Unlock()

	select {
	case o := <-g.done:
		return o.cells, o.err
	case <-ctx.Done():
		// Settle the group so a late worker outcome is discarded; if it
		// is still queued, pull it before any worker wastes time on it.
		c.mu.Lock()
		if !g.settled {
			g.settled = true
			c.dequeueLocked(g)
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// dequeueLocked removes g from the pending queue if present.
func (c *Coordinator) dequeueLocked(g *group) {
	for i, q := range c.queue {
		if q == g {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// deliver settles g with its outcome; late outcomes (after a lease
// requeue already settled the group elsewhere, or after the caller's ctx
// cancelled) are discarded. Any lease record for g is released.
func (c *Coordinator) deliver(g *group, o groupOutcome) {
	c.mu.Lock()
	delete(c.inflight, g.id)
	if g.settled {
		c.mu.Unlock()
		return
	}
	g.settled = true
	c.mu.Unlock()
	g.done <- o
}

// requeue returns a group forfeited by a lost worker to the front of the
// queue — front, so a long-queued group does not also go to the back of
// the line — failing it once MaxAttempts workers have been lost on it.
func (c *Coordinator) requeue(g *group, cause error) {
	c.mu.Lock()
	delete(c.inflight, g.id)
	if g.settled || c.closed {
		c.mu.Unlock()
		return
	}
	g.attempts++
	c.requeues++
	if g.attempts >= c.opt.maxAttempts() {
		c.mu.Unlock()
		c.deliver(g, groupOutcome{err: fmt.Errorf("dsweep: group %d lost %d workers (last: %v)", g.id, g.attempts, cause)})
		return
	}
	c.queue = append([]*group{g}, c.queue...)
	c.cond.Signal()
	c.mu.Unlock()
	c.logf("dsweep: requeued group %d after worker loss (%v)", g.id, cause)
}

// lease records g as in flight on the named worker's connection.
func (c *Coordinator) lease(g *group, worker string) {
	c.mu.Lock()
	c.inflight[g.id] = &leaseRec{worker: worker, since: time.Now()}
	c.mu.Unlock()
}

// take blocks until a pending group is available and leases it to the
// caller; it returns nil once the coordinator is closed.
func (c *Coordinator) take() *group {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) == 0 && !c.closed {
		c.cond.Wait()
	}
	if c.closed {
		return nil
	}
	g := c.queue[0]
	c.queue = c.queue[1:]
	return g
}

// Handle serves one worker connection until it drains, errors out or
// blows a lease. Serve calls it for every accepted connection; tests may
// drive it directly over an in-memory pipe.
func (c *Coordinator) Handle(conn net.Conn) {
	c.handlers.Add(1)
	defer c.handlers.Done()
	defer conn.Close()
	enableKeepAlive(conn)

	name, err := c.serveWorker(conn)
	c.mu.Lock()
	if name != "" {
		c.workers--
		if ws := c.perWorker[name]; ws != nil {
			ws.connected--
		}
	}
	closed := c.closed
	c.mu.Unlock()
	if err != nil && !closed {
		c.logf("dsweep: worker %s: %v", name, err)
	}
}

// checkToken compares a worker's presented token against the configured
// one in constant time, so the comparison leaks nothing about how much of
// a guessed token matched.
func (c *Coordinator) checkToken(got string) bool {
	return subtle.ConstantTimeCompare([]byte(got), []byte(c.opt.Token)) == 1
}

// serveWorker runs the coordinator side of the protocol on one
// connection: handshake (version, then token), then Ready→Job→Result
// rounds until the worker disconnects or the queue closes. Any transport
// or protocol failure while a group is leased requeues the group; every
// write and every bounded-expectation read carries a deadline, so a
// stalled peer costs at most IOTimeout (or the lease), never a handler.
func (c *Coordinator) serveWorker(conn net.Conn) (string, error) {
	lease := c.opt.lease()
	iot := c.opt.ioTimeout()

	// Handshake, deadline-bounded so a silent connection cannot pin the
	// handler.
	typ, payload, err := readFrameTimeout(conn, iot)
	if err != nil {
		return "", fmt.Errorf("hello: %w", err)
	}
	var hello helloMsg
	if typ != MsgHello {
		return "", fmt.Errorf("expected hello, got %v", typ)
	}
	if err := decodeMsg(typ, payload, &hello); err != nil {
		return "", err
	}
	hello.Name = truncate(hello.Name, MaxNameLen)
	if hello.Proto != protoVersion {
		writeMsgTimeout(conn, iot, MsgBye, nil)
		return "", fmt.Errorf("worker %q speaks protocol %d, want %d", hello.Name, hello.Proto, protoVersion)
	}
	if !c.checkToken(hello.Token) {
		c.mu.Lock()
		c.authRejects++
		c.mu.Unlock()
		writeMsgTimeout(conn, iot, MsgBye, nil)
		return "", fmt.Errorf("worker %q presented a bad token", hello.Name)
	}
	if err := writeMsgTimeout(conn, iot, MsgHello, helloMsg{Proto: protoVersion, Name: "coordinator"}); err != nil {
		return "", fmt.Errorf("hello reply: %w", err)
	}
	c.mu.Lock()
	c.workers++
	ws := c.perWorker[hello.Name]
	if ws == nil {
		ws = &workerStats{}
		c.perWorker[hello.Name] = ws
	}
	ws.connected++
	ws.connects++
	if hello.Attempt > 0 {
		ws.reconnects++
		c.reconnects++
	}
	c.mu.Unlock()
	if hello.Attempt > 0 {
		c.logf("dsweep: worker %s reconnected (attempt %d)", hello.Name, hello.Attempt)
	} else {
		c.logf("dsweep: worker %s connected", hello.Name)
	}

	for {
		// Wait for the worker to pull work; an idle worker may sit here
		// arbitrarily long, so no deadline applies (keepalives cover a
		// dead peer).
		typ, _, err := readFrameTimeout(conn, 0)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return hello.Name, nil // worker drained and left
			}
			return hello.Name, fmt.Errorf("ready: %w", err)
		}
		if typ != MsgReady {
			return hello.Name, fmt.Errorf("expected ready, got %v", typ)
		}

		g := c.take()
		if g == nil {
			writeMsgTimeout(conn, iot, MsgBye, nil)
			return hello.Name, nil
		}
		c.lease(g, hello.Name)
		if err := writeMsgTimeout(conn, iot, MsgJob, jobMsg{ID: g.id, Spec: g.spec, Idxs: g.idxs}); err != nil {
			c.requeue(g, fmt.Errorf("send to %s: %w", hello.Name, err))
			return hello.Name, fmt.Errorf("job: %w", err)
		}

		// The lease: the worker must produce the group's outcome within
		// the deadline or it is presumed dead and the group is requeued.
		typ, payload, err := readFrameTimeout(conn, lease)
		if err != nil {
			c.requeue(g, fmt.Errorf("worker %s: %w", hello.Name, err))
			return hello.Name, fmt.Errorf("group %d: %w", g.id, err)
		}
		switch typ {
		case MsgResult:
			var res resultMsg
			if err := decodeMsg(typ, payload, &res); err != nil {
				c.requeue(g, err)
				return hello.Name, err
			}
			if res.ID != g.id {
				err := fmt.Errorf("result for group %d while %d is leased", res.ID, g.id)
				c.requeue(g, err)
				return hello.Name, err
			}
			if len(res.Cells) != len(g.idxs) {
				// A malformed result is a worker bug, not a crash: fail
				// the group rather than recompute the same bug elsewhere.
				c.deliver(g, groupOutcome{err: fmt.Errorf("dsweep: worker %s returned %d cells for %d jobs", hello.Name, len(res.Cells), len(g.idxs))})
				continue
			}
			// Count before delivering, so a Status taken once RunGroup
			// returns already includes this group.
			c.mu.Lock()
			ws.completed++
			ws.jobs += uint64(len(g.idxs))
			if res.Cache != nil {
				ws.cache = *res.Cache
			}
			c.mu.Unlock()
			c.deliver(g, groupOutcome{cells: res.Cells})
		case MsgFail:
			var fail failMsg
			if err := decodeMsg(typ, payload, &fail); err != nil {
				c.requeue(g, err)
				return hello.Name, err
			}
			// Job errors are deterministic; requeueing would repeat them.
			c.mu.Lock()
			ws.fails++
			c.mu.Unlock()
			c.deliver(g, groupOutcome{err: fmt.Errorf("dsweep: worker %s: %s", hello.Name, truncate(fail.Error, MaxErrorLen))})
		default:
			err := fmt.Errorf("expected result, got %v", typ)
			c.requeue(g, err)
			return hello.Name, err
		}
	}
}
