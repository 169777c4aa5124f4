// Package sweep is a deterministic worker-pool engine for the evaluation
// pipeline's embarrassingly parallel simulation sweeps (benchmark × mode,
// benchmark × timeout, request-size grids, …).
//
// Every job is identified by its index in a fixed-size grid; results come
// back in index order regardless of completion order, so a sweep's output
// is byte-identical whether it ran on one worker or on every core. The
// engine supports context cancellation, a first-error-wins abort (the
// first job error cancels the remaining jobs and is the primary returned
// error, with later distinct failures joined behind it), and an optional
// serialized progress callback.
//
// Long campaigns survive three failure classes that would otherwise lose
// hours of compute: a panicking job is recovered into a PanicError naming
// the job index (the process and the other workers keep running), a hung
// job is abandoned after Options.JobTimeout, and Options.Checkpoint
// persists every completed result to a JSONL file so an interrupted sweep
// resumes without recomputing — with results restored by index, the
// resumed output is byte-identical to a cold run at any worker count.
package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hmccoal/internal/durable"
)

// Options tunes a sweep.
type Options struct {
	// Workers is the pool size. 0 means GOMAXPROCS (all cores);
	// 1 reproduces strictly serial, in-order execution.
	Workers int
	// Progress, when non-nil, is invoked after each job completes with
	// the number of finished jobs and the grid size. Calls are
	// serialized; done is strictly increasing up to total. On a
	// checkpoint resume, restored jobs are reported once, up front.
	Progress func(done, total int)
	// JobTimeout, when positive, bounds each job's run time. A job still
	// running at the deadline is abandoned (its goroutine cannot be
	// killed, but its result is discarded and its context cancelled) and
	// reported as a JobError wrapping context.DeadlineExceeded.
	JobTimeout time.Duration
	// Checkpoint, when non-empty, is a JSONL file persisting completed
	// results. A new file starts with the header line {"key":…,"n":n}
	// binding it to Key and the grid size; one {"job":i,"result":…} line
	// per finished job follows, appended as jobs complete. Starting a sweep
	// with an existing checkpoint restores those results by index and only
	// runs the remainder. A file whose header differs, or that has none,
	// fails the sweep with ErrCheckpointMismatch before any job runs. Lines
	// torn by a crash mid-write and out-of-range indices are skipped
	// individually — the scan continues past them — and a job recorded
	// twice (an interrupted write re-appended on resume) restores its last
	// complete line. The result type must be JSON round-trippable for
	// restored runs to be byte-identical.
	Checkpoint string
	// Key identifies the inputs the sweep's results depend on; it is
	// compared byte for byte with a resumed checkpoint's header.
	Key string
	// KeepGoing runs every job even after failures instead of cancelling
	// the sweep at the first error. All distinct errors are aggregated in
	// the returned error; soak harnesses use this to collect every
	// violation in a grid rather than just the first.
	KeepGoing bool
	// Remote marks a sweep whose groups block on external executors (a
	// distributed dispatcher) instead of computing locally. The pool is
	// then sized to keep every executor fed — one goroutine per pending
	// group, capped — rather than to the local core count, which would
	// starve a many-worker cluster from a small coordinator machine.
	Remote bool
}

// JobError wraps a job failure with the index of the job that failed.
type JobError struct {
	Job int
	Err error
}

func (e *JobError) Error() string { return fmt.Sprintf("sweep: job %d: %v", e.Job, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// PanicError is a job panic converted into a first-class error: the sweep
// process survives, the other workers keep draining the grid, and the
// panic value plus its stack are preserved for the report.
type PanicError struct {
	Job   int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: job %d panicked: %v", e.Job, e.Value)
}

// remotePoolCap bounds the dispatch goroutines of a Remote sweep: enough
// in-flight groups to saturate any plausible worker fleet, small enough
// that a huge grid does not spawn a goroutine per group up front.
const remotePoolCap = 1024

// workers resolves the effective pool size for n groups.
func (o Options) workers(n int) int {
	w := o.Workers
	if o.Remote {
		// Dispatch goroutines only block on the network; offer every
		// pending group concurrently (up to the cap) so work-stealing
		// executors are never starved, regardless of local core count. An
		// explicit Workers still bounds the in-flight groups.
		if w <= 0 || w > n {
			w = n
		}
		if w > remotePoolCap {
			w = remotePoolCap
		}
		if w < 1 {
			w = 1
		}
		return w
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ErrCheckpointMismatch is wrapped by a sweep whose checkpoint file was
// written for different inputs (another Key or grid size) or carries no
// header at all. Restoring from it would print stale results, so the
// sweep fails before any job runs.
var ErrCheckpointMismatch = errors.New("checkpoint header does not match this sweep")

// checkpointHeader is the first line of every checkpoint file.
type checkpointHeader struct {
	Key string `json:"key"`
	N   int    `json:"n"`
}

// checkpointLine is one JSONL record of a completed job.
type checkpointLine struct {
	Job int `json:"job"`
	// Result is deferred so restore can skip an out-of-range record
	// before paying for the payload.
	Result json.RawMessage `json:"result"`
}

// Map runs fn(ctx, i) for every i in [0, n) across the worker pool and
// returns the results in index order. The first job error (in completion
// order) cancels the remaining jobs — unless Options.KeepGoing — and is
// the primary returned error; distinct later failures are joined behind
// it via errors.Join. Jobs that never ran leave their result slot at the
// zero value. A cancelled ctx aborts the sweep with ctx's error.
//
// A job that panics is reported as a *PanicError; a job exceeding
// Options.JobTimeout as a *JobError wrapping context.DeadlineExceeded.
// Both name the job index, so a grid failure is replayable in isolation.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapBatch(ctx, n, 1, opts, func(ctx context.Context, idxs []int) ([]T, error) {
		r, err := fn(ctx, idxs[0])
		if err != nil {
			return nil, err
		}
		return []T{r}, nil
	})
}

// MapBatch is Map with the grid handed to fn in batch-aligned groups of
// up to batch consecutive indices: fn(ctx, idxs) must return one result
// per index, in order. Workers pull whole groups, so a group is the unit
// of scheduling (and of JobTimeout and panic attribution — both name the
// group's first index) while checkpointing and progress remain per job:
// every completed job appends its own checkpoint line in the same format
// Map writes, so batched and unbatched sweeps restore from each other's
// checkpoints, and Options.Progress still counts single jobs.
//
// Groups are aligned to batch boundaries of the full grid (restored jobs
// are filtered out of their group), so a sweep's group membership is a
// pure function of (n, batch). batch < 1 is treated as 1; Map is exactly
// MapBatch with batch 1.
func MapBatch[T any](ctx context.Context, n, batch int, opts Options, fn func(ctx context.Context, idxs []int) ([]T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	if batch < 1 {
		batch = 1
	}

	restored := make([]bool, n)
	var ckpt *os.File
	if opts.Checkpoint != "" {
		// A struct of a string and an int always encodes.
		header, _ := json.Marshal(checkpointHeader{Key: opts.Key, N: n})
		header = append(header, '\n')
		nRestored, err := restoreCheckpoint(opts.Checkpoint, header, results, restored)
		if err != nil {
			return results, err
		}
		ckpt, err = durable.OpenAppend(opts.Checkpoint, header)
		if err != nil {
			return results, fmt.Errorf("sweep: checkpoint: %w", err)
		}
		defer ckpt.Close()
		if opts.Progress != nil && nRestored > 0 {
			opts.Progress(nRestored, n)
		}
	}

	// Batch-aligned groups of still-pending indices.
	var groups [][]int
	for base := 0; base < n; base += batch {
		var g []int
		for i := base; i < base+batch && i < n; i++ {
			if !restored[i] {
				g = append(g, i)
			}
		}
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu   sync.Mutex
		done int
		errs []error
	)
	for _, r := range restored {
		if r {
			done++
		}
	}
	// finish serializes group completion: error aggregation and abort,
	// checkpoint append, then one progress tick per job in the group. A
	// context.Canceled after the sweep has already aborted is the
	// cancellation echoing through the remaining in-flight groups, not a
	// distinct failure — it is not recorded.
	finish := func(jobs int, err error, record func() error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if len(errs) > 0 && errors.Is(err, context.Canceled) {
				return
			}
			errs = append(errs, err)
			if !opts.KeepGoing {
				cancel()
			}
			return
		}
		if record != nil {
			if werr := record(); werr != nil {
				errs = append(errs, werr)
				if !opts.KeepGoing {
					cancel()
				}
				return
			}
		}
		for ; jobs > 0; jobs-- {
			done++
			if opts.Progress != nil {
				opts.Progress(done, n)
			}
		}
	}

	work := make(chan []int)
	var wg sync.WaitGroup
	for w := opts.workers(len(groups)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				if ctx.Err() != nil {
					return
				}
				rs, err := runGroup(ctx, g, opts, fn)
				if err == nil && len(rs) != len(g) {
					err = fmt.Errorf("sweep: group at job %d returned %d results for %d jobs", g[0], len(rs), len(g))
				}
				if err != nil {
					finish(0, err, nil)
					continue
				}
				for k, i := range g {
					results[i] = rs[k]
				}
				finish(len(g), nil, func() error {
					return appendCheckpoint(ckpt, g, rs)
				})
			}
		}()
	}

feed:
	for _, g := range groups {
		select {
		case work <- g:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	switch len(errs) {
	case 0:
		return results, ctx.Err()
	case 1:
		return results, errs[0]
	default:
		return results, errors.Join(errs...)
	}
}

// runGroup executes one group with panic recovery and the optional
// timeout. On timeout the group's goroutine is abandoned — only
// runGroup's caller ever writes result slots, so a late finisher cannot
// race the sweep. Panics and timeouts are attributed to the group's first
// job index.
func runGroup[T any](ctx context.Context, idxs []int, opts Options, fn func(ctx context.Context, idxs []int) ([]T, error)) ([]T, error) {
	call := func(ctx context.Context) (r []T, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &PanicError{Job: idxs[0], Value: p, Stack: debug.Stack()}
			}
		}()
		return fn(ctx, idxs)
	}
	if opts.JobTimeout <= 0 {
		return call(ctx)
	}
	tctx, tcancel := context.WithTimeout(ctx, opts.JobTimeout)
	defer tcancel()
	type outcome struct {
		r   []T
		err error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned group's send never blocks
	go func() {
		r, err := call(tctx)
		ch <- outcome{r, err}
	}()
	select {
	case o := <-ch:
		return o.r, o.err
	case <-tctx.Done():
		return nil, &JobError{Job: idxs[0], Err: tctx.Err()}
	}
}

// restoreCheckpoint loads completed results from a JSONL checkpoint into
// results/restored and reports how many were restored. A missing file is
// an empty checkpoint; an existing one must begin with exactly header, or
// the restore fails with ErrCheckpointMismatch. The job lines after it
// are scanned one by one: out-of-range indices and undecodable lines are
// skipped — and the scan continues past them, so a line torn by a crash
// mid-append (which a resumed sweep then re-appends after) costs exactly
// that line, never the rest of the file.
//
// Duplicate indices are last-wins: when a job appears twice — an
// interrupted write whose complete record was re-appended on resume — the
// later, complete line supersedes the earlier one. A job only counts as
// restored once, and only a line whose payload decodes can supersede.
func restoreCheckpoint[T any](path string, header []byte, results []T, restored []bool) (int, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	if !bytes.HasPrefix(data, header) {
		return 0, fmt.Errorf("sweep: %s: %w", path, ErrCheckpointMismatch)
	}
	count := 0
	for _, raw := range bytes.Split(data[len(header):], []byte("\n")) {
		if raw = bytes.TrimSpace(raw); len(raw) == 0 {
			continue
		}
		var line checkpointLine
		if err := json.Unmarshal(raw, &line); err != nil {
			continue // torn or corrupt line: skip it, keep scanning
		}
		if line.Job < 0 || line.Job >= len(results) {
			continue
		}
		var r T
		if err := json.Unmarshal(line.Result, &r); err != nil {
			continue
		}
		results[line.Job] = r
		if !restored[line.Job] {
			restored[line.Job] = true
			count++
		}
	}
	return count, nil
}

// appendCheckpoint writes one completed group's jobs to the checkpoint as
// a single unbuffered Write — one JSONL line per job, write-through, so a
// group recorded by finish is on disk before the sweep moves on. There is
// no deferred flush to lose: cancellation (or a crash) after a group's
// append costs nothing, and mid-append it tears at most the final line,
// which restore skips. Every append is fsync'd before finish counts the
// group as done, so a power loss can only take the lines after the last
// sync — never reorder a complete, acknowledged line behind a torn one.
// Does nothing when checkpointing is off.
func appendCheckpoint[T any](f *os.File, idxs []int, rs []T) error {
	if f == nil {
		return nil
	}
	var buf []byte
	for k, i := range idxs {
		raw, err := json.Marshal(rs[k])
		if err != nil {
			return fmt.Errorf("sweep: checkpoint job %d: %w", i, err)
		}
		line, err := json.Marshal(checkpointLine{Job: i, Result: raw})
		if err != nil {
			return fmt.Errorf("sweep: checkpoint job %d: %w", i, err)
		}
		buf = append(append(buf, line...), '\n')
	}
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("sweep: checkpoint group at job %d: %w", idxs[0], err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("sweep: checkpoint sync: %w", err)
	}
	return nil
}
