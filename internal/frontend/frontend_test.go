package frontend

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/mshr"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", KindTwoPhase, false},
		{"two-phase", KindTwoPhase, false},
		{"warp", KindWarp, false},
		{"Warp", 0, true},
		{"gpu", 0, true},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseKind(%q): err = %v, want err = %v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseKind(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if err := Kind(99).Validate(); err == nil {
		t.Errorf("Kind(99).Validate() accepted an unknown kind")
	}
}

func TestParseSched(t *testing.T) {
	cases := []struct {
		in   string
		want SchedKind
		err  bool
	}{
		{"", SchedFRFCFS, false},
		{"frfcfs", SchedFRFCFS, false},
		{"hetero", SchedHetero, false},
		{"FRFCFS", 0, true},
		{"rr", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSched(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseSched(%q): err = %v, want err = %v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseSched(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if err := SchedKind(99).Validate(); err == nil {
		t.Errorf("SchedKind(99).Validate() accepted an unknown scheduler")
	}
}

func TestNameRoundTrips(t *testing.T) {
	for _, name := range Kinds() {
		k, err := ParseKind(name)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", name, err)
		}
		if k.String() != name {
			t.Errorf("ParseKind(%q).String() = %q", name, k.String())
		}
	}
	for _, name := range Scheds() {
		s, err := ParseSched(name)
		if err != nil {
			t.Fatalf("ParseSched(%q): %v", name, err)
		}
		if s.String() != name {
			t.Errorf("ParseSched(%q).String() = %q", name, s.String())
		}
	}
}

// testConfig is the shared front-end geometry the behavioral tests run on.
func testConfig(kind Kind, sched SchedKind) Config {
	return Config{Kind: kind, Sched: sched, Lanes: 4, Coalescer: coalescer.DefaultConfig()}
}

// fakeMem is a deterministic memory model: every packet completes after a
// latency proportional to its line span, and the completion callback
// records every waiter token with its arrival tick and fault bit. The
// fault schedule poisons every poisonEvery-th issue and drops the
// dropAt-th one (both 1-based; zero disables).
type fakeMem struct {
	poisonEvery int
	dropAt      int

	issued  int
	dropped *mshr.Entry
	tokens  []uint64
	ticks   []uint64
	faults  []bool
}

func (m *fakeMem) issue(tick uint64, e *mshr.Entry) coalescer.IssueResult {
	m.issued++
	if m.issued == m.dropAt {
		m.dropped = e
		return coalescer.IssueResult{Done: coalescer.NeverTick, Dropped: true}
	}
	poisoned := m.poisonEvery > 0 && m.issued%m.poisonEvery == 0
	return coalescer.IssueResult{Done: tick + 40 + 4*uint64(e.Lines()), Fault: poisoned}
}

func (m *fakeMem) complete(tick uint64, subs []mshr.Sub, fault bool) {
	for _, s := range subs {
		m.tokens = append(m.tokens, s.Token)
		m.ticks = append(m.ticks, tick)
		m.faults = append(m.faults, fault)
	}
}

// input is one stimulus variant every front-end runs: the link's poison
// schedule, a span retry cap, and an optional fence every fenceEvery
// pushes.
type input struct {
	name        string
	poisonEvery int
	maxRetries  int
	fenceEvery  int
}

func inputs() []input {
	return []input{
		{name: "clean"},
		{name: "fence", fenceEvery: 50},
		{name: "poison", poisonEvery: 3, maxRetries: 1},
		{name: "poison+fence", poisonEvery: 3, maxRetries: 1, fenceEvery: 50},
	}
}

// build makes a front-end for cfg under in, wired to mem.
func (in input) build(t *testing.T, cfg Config, mem *fakeMem) Frontend {
	t.Helper()
	cfg.Coalescer.MaxPacketRetries = in.maxRetries
	mem.poisonEvery = in.poisonEvery
	f, err := New(cfg, mem.issue, mem.complete)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// pushStream pushes a deterministic mixed stream — runs of adjacent lines,
// strided singles, a write burst — through a front-end, fencing after
// every fenceEvery-th push, and returns the tick it stopped at.
func pushStream(f Frontend, n, fenceEvery int) uint64 {
	now := uint64(0)
	for i := 0; i < n; i++ {
		line := uint64(i/8)*32 + uint64(i%8) // runs of 8 adjacent lines
		if i%5 == 4 {
			line = 1 << 20 >> 6 * uint64(i) // far stride breaking the run
		}
		f.Push(now, coalescer.Request{
			Line:     line,
			Write:    i%7 == 0,
			Payload:  8,
			Token:    uint64(i),
			CPU:      uint8(i % 4),
			Critical: i%3 == 0,
		})
		now += 2
		if fenceEvery > 0 && (i+1)%fenceEvery == 0 {
			f.Fence(now)
		}
		f.Advance(now)
	}
	return now
}

// drive pushes the mixed stream and drains the front-end.
func drive(t *testing.T, f Frontend, n, fenceEvery int) {
	t.Helper()
	now := pushStream(f, n, fenceEvery)
	if _, err := f.Drain(now); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := f.CheckDrained(now + 1); err != nil {
		t.Fatalf("CheckDrained: %v", err)
	}
}

func allCombos() []Config {
	var cfgs []Config
	for _, k := range []Kind{KindTwoPhase, KindWarp} {
		for _, s := range []SchedKind{SchedFRFCFS, SchedHetero} {
			cfgs = append(cfgs, testConfig(k, s))
		}
	}
	return cfgs
}

func TestFactoryKinds(t *testing.T) {
	for _, cfg := range allCombos() {
		mem := &fakeMem{}
		f, err := New(cfg, mem.issue, mem.complete)
		if err != nil {
			t.Fatalf("New(%v/%v): %v", cfg.Kind, cfg.Sched, err)
		}
		var ok bool
		switch cfg.Kind {
		case KindTwoPhase:
			_, ok = f.(*coalescer.Coalescer)
		case KindWarp:
			_, ok = f.(*warp)
		}
		if !ok {
			t.Errorf("New(%v) built a %T", cfg.Kind, f)
		}
	}
	bad := testConfig(Kind(42), SchedFRFCFS)
	if _, err := New(bad, (&fakeMem{}).issue, (&fakeMem{}).complete); err == nil {
		t.Errorf("New accepted an unknown frontend kind")
	}
	bad = testConfig(KindTwoPhase, SchedKind(42))
	if _, err := New(bad, (&fakeMem{}).issue, (&fakeMem{}).complete); err == nil {
		t.Errorf("New accepted an unknown scheduler kind")
	}
}

// TestDeterministicAndConserving pins the front-end contract: identical
// push sequences yield identical completions and statistics, every token
// pushed comes back exactly once, and the request count is conserved. On
// a poisoning link, spans past the retry cap complete with the fault bit
// set and are counted as failed targets.
func TestDeterministicAndConserving(t *testing.T) {
	const n = 400
	for _, cfg := range allCombos() {
		cfg := cfg
		t.Run(cfg.Kind.String()+"/"+cfg.Sched.String(), func(t *testing.T) {
			for _, in := range inputs() {
				in := in
				t.Run(in.name, func(t *testing.T) {
					runOne := func() (*fakeMem, coalescer.Stats) {
						mem := &fakeMem{}
						f := in.build(t, cfg, mem)
						drive(t, f, n, in.fenceEvery)
						if got := f.Stats().Requests; got != n {
							t.Fatalf("Stats().Requests = %d, want %d", got, n)
						}
						return mem, f.Stats()
					}
					a, as := runOne()
					b, bs := runOne()
					if !reflect.DeepEqual(a.tokens, b.tokens) || !reflect.DeepEqual(a.ticks, b.ticks) ||
						!reflect.DeepEqual(a.faults, b.faults) || as != bs {
						t.Fatalf("identical runs produced different completions")
					}
					seen := make(map[uint64]int, n)
					failed := uint64(0)
					for i, tok := range a.tokens {
						seen[tok]++
						if a.faults[i] {
							failed++
						}
					}
					if len(seen) != n {
						t.Fatalf("completed %d distinct tokens, want %d", len(seen), n)
					}
					for tok, c := range seen {
						if c != 1 {
							t.Fatalf("token %d completed %d times", tok, c)
						}
					}
					if failed != as.FailedTargets {
						t.Fatalf("%d tokens completed with fault=true, Stats().FailedTargets = %d", failed, as.FailedTargets)
					}
					if in.poisonEvery > 0 && (as.PoisonedPackets == 0 || as.RetriedPackets == 0 || failed == 0) {
						t.Fatalf("poisoning link exercised no retry path: %+v", as)
					}
					if in.fenceEvery > 0 && as.Fences != n/uint64(in.fenceEvery) {
						t.Fatalf("Stats().Fences = %d, want %d", as.Fences, n/in.fenceEvery)
					}
				})
			}
		})
	}
}

// TestDroppedResponseWatchdog drops one response: Drain must give up with
// a watchdog error instead of hanging, and DoomedTokens must name exactly
// the waiters that never completed — the dropped packet's.
func TestDroppedResponseWatchdog(t *testing.T) {
	const n = 200
	for _, cfg := range allCombos() {
		cfg := cfg
		t.Run(cfg.Kind.String()+"/"+cfg.Sched.String(), func(t *testing.T) {
			mem := &fakeMem{dropAt: 5}
			f, err := New(cfg, mem.issue, mem.complete)
			if err != nil {
				t.Fatal(err)
			}
			now := pushStream(f, n, 0)
			_, err = f.Drain(now)
			if !errors.Is(err, coalescer.ErrWatchdog) {
				t.Fatalf("Drain = %v, want a watchdog error", err)
			}
			if !errors.Is(f.WatchdogError(), coalescer.ErrWatchdog) {
				t.Fatalf("WatchdogError = %v after a dropped response", f.WatchdogError())
			}
			if mem.dropped == nil {
				t.Fatal("the fault schedule dropped nothing")
			}
			done := make(map[uint64]bool, n)
			for _, tok := range mem.tokens {
				done[tok] = true
			}
			var want []uint64
			for tok := uint64(0); tok < n; tok++ {
				if !done[tok] {
					want = append(want, tok)
				}
			}
			var got []uint64
			f.DoomedTokens(func(tok uint64) { got = append(got, tok) })
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("DoomedTokens = %v, want the never-completed tokens %v", got, want)
			}
			var waiters []uint64
			for _, s := range mem.dropped.Subs() {
				waiters = append(waiters, s.Token)
			}
			sort.Slice(waiters, func(i, j int) bool { return waiters[i] < waiters[j] })
			if !reflect.DeepEqual(got, waiters) {
				t.Fatalf("DoomedTokens = %v, dropped packet's waiters = %v", got, waiters)
			}
		})
	}
}

// TestTwoPhaseWrapperAddsNoAllocs pins that the default front-end is the
// bare coalescer: building and driving it through frontend.New and the
// interface allocates exactly as much as coalescer.New, so the
// pre-frontend alloc profile of the simulator's hot path is unchanged.
func TestTwoPhaseWrapperAddsNoAllocs(t *testing.T) {
	cfg := testConfig(KindTwoPhase, SchedFRFCFS)
	mem := &fakeMem{}

	bare := testing.AllocsPerRun(10, func() {
		c, err := coalescer.New(cfg.Coalescer, cfg.Sched, mem.issue, mem.complete)
		if err != nil {
			t.Fatal(err)
		}
		c.Push(0, coalescer.Request{Line: 1, Payload: 8})
		c.Advance(100)
		if _, err := c.Drain(100); err != nil {
			t.Fatal(err)
		}
	})
	wrapped := testing.AllocsPerRun(10, func() {
		f, err := New(cfg, mem.issue, mem.complete)
		if err != nil {
			t.Fatal(err)
		}
		f.Push(0, coalescer.Request{Line: 1, Payload: 8})
		f.Advance(100)
		if _, err := f.Drain(100); err != nil {
			t.Fatal(err)
		}
	})
	if wrapped > bare {
		t.Errorf("two-phase front-end allocates more than the coalescer: %v allocs via frontend.New, %v via coalescer.New", wrapped, bare)
	}
}
