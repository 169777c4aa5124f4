package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer's
// public functions; nothing inside the program is instrumented. A span has
// a name, a start and end, and the span that caused it. Calls too frequent
// to keep one record each (a memory device's SubmitPacket inside a
// front-end replay) are leaf spans: their durations are summed per name
// and charged to their parent as covered time instead of being stored.
//
// A nil *tracer is tracing off: every method is a no-op that reads no
// clock, so the untraced run pays nothing for the hooks it shares with the
// traced one. A tracer is safe for concurrent use.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	leaves map[string]*leafTotal
	counts map[string]int64
}

// span is one recorded interval, in offsets from the tracer's epoch.
type span struct {
	name       string
	parent     int // index of the causing span, -1 for a root
	start, end time.Duration
	open       bool
	leafTime   time.Duration // summed durations of leaf children
}

// leafTotal aggregates the leaf spans of one name.
type leafTotal struct {
	dur time.Duration
	n   int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), leaves: make(map[string]*leafTotal), counts: make(map[string]int64)}
}

// now is the current offset from the epoch.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span caused by parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, open: true})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end, s.open = stop, false
	return s.end - s.start
}

// leaf charges n leaf spans named name, of summed duration d, to parent.
func (t *tracer) leaf(parent int, name string, d time.Duration, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		t.spans[parent].leafTime += d
	}
	lt := t.leaves[name]
	if lt == nil {
		lt = &leafTotal{}
		t.leaves[name] = lt
	}
	lt.dur += d
	lt.n += n
}

// selfTime is span id's duration minus the part of it its children cover:
// the union of its recorded child spans, clipped to the parent, plus its
// leaf children. Grandchildren are already inside their parent's interval
// and are not subtracted again.
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[id]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, s := range t.spans {
		if s.parent != id || s.open {
			continue
		}
		a, b := max(s.start, p.start), min(s.end, p.end)
		if a < b {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	for i, k := range kids {
		switch {
		case i == 0:
			curA, curB = k.a, k.b
		case k.a > curB:
			covered += curB - curA
			curA, curB = k.a, k.b
		case k.b > curB:
			curB = k.b
		}
	}
	if len(kids) > 0 {
		covered += curB - curA
	}
	return p.end - p.start - covered - p.leafTime
}

// durations returns the closed spans named name, in record order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && !s.open {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// ids returns the ids of the closed spans named name.
func (t *tracer) ids(name string) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for i, s := range t.spans {
		if s.name == name && !s.open {
			out = append(out, i)
		}
	}
	return out
}

// leafStats returns the summed duration and count of the leaf spans named
// name.
func (t *tracer) leafStats(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lt := t.leaves[name]; lt != nil {
		return lt.dur, lt.n
	}
	return 0, 0
}

// add counts n units of work named name (accesses replayed, windows
// sorted), the denominators of the per-unit layer times.
func (t *tracer) add(name string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += int64(n)
}

// count returns the work counted under name.
func (t *tracer) count(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// sum adds up durations.
func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// meanMs is the mean of ds in milliseconds (0 for none).
func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return ms(sum(ds)) / float64(len(ds))
}

// clear drops everything recorded so far, so work done while setting up
// does not count toward the measured spans.
func (t *tracer) clear() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	clear(t.leaves)
	clear(t.counts)
}
