package main

import (
	"errors"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0},    // even the median has only 9 samples above it
		{20, 50},   // 10 above the median
		{99, 50},   // p90 would leave 9
		{100, 90},  // exactly 10 beyond p90
		{999, 90},  // p99 would leave 9
		{1000, 99}, // exactly 10 beyond p99
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond it", c.n, c.want, beyond(c.n, c.want))
		}
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	tr := newTracer()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr.spans = []span{
		{name: "run", parent: -1, start: ms(0), end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(30)},       // child of run
		{name: "b", parent: 0, start: ms(20), end: ms(40)},       // overlaps a: their union is 30 ms
		{name: "a.inner", parent: 1, start: ms(12), end: ms(15)}, // grandchild, already inside a
		{name: "tail", parent: 0, start: ms(90), end: ms(120)},   // clipped to the parent's end
	}
	tr.leaf(0, "submit", ms(5), 3) // leaf children of run: 5 ms in 3 calls

	if got, want := tr.selfTime(0), ms(100-30-10-5); got != want {
		t.Errorf("self(run) = %v, want %v", got, want)
	}
	if got, want := tr.selfTime(1), ms(20-3); got != want {
		t.Errorf("self(a) = %v, want %v", got, want)
	}
	if got, want := tr.selfTime(3), ms(3); got != want {
		t.Errorf("self(a.inner) = %v, want %v", got, want)
	}
	if d, n := tr.leafStats("submit"); d != ms(5) || n != 3 {
		t.Errorf("leafStats(submit) = %v, %d; want 5ms, 3", d, n)
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", -1)
	if sp != -1 || tr.end(sp) != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
	tr.leaf(sp, "y", time.Second, 1)
	tr.add("z", 1)
	tr.clear()
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	recs := []openLoopRecord{
		{due: ms(0), sent: ms(0), done: ms(10), ok: true},
		// The generator stalled: sent 15 ms late. Its latency counts the
		// stall, because a user would have sent it on time.
		{due: ms(10), sent: ms(25), done: ms(30), ok: true},
		// Refused or failed: misses any limit.
		{due: ms(20), sent: ms(26), ok: false},
	}
	lat, late := openLoopLatencies(recs)
	wantLat := []float64{10, 20, math.Inf(1)}
	wantLate := []float64{0, 15, 6}
	for i := range recs {
		if lat[i] != wantLat[i] || late[i] != wantLate[i] {
			t.Errorf("request %d: latency %g, late %g; want %g, %g", i, lat[i], late[i], wantLat[i], wantLate[i])
		}
	}
	if p := percentile(lat, 90); !math.IsInf(p, 1) {
		t.Errorf("a failed request must dominate the tail, p90 = %g", p)
	}
}

func TestBacklogGrowing(t *testing.T) {
	steady := make([]int, 300)
	for i := range steady {
		steady[i] = []int{0, 2, 1, 3, 1, 0, 2}[i%7]
	}
	if backlogGrowing(steady, 0) {
		t.Error("a queue fluctuating around a level was reported as growing")
	}
	growing := make([]int, 300)
	for i := range growing {
		growing[i] = i/20 + steady[i]
	}
	if !backlogGrowing(growing, 0) {
		t.Error("a queue gaining a request every 20 sends was not reported as growing")
	}
	if backlogGrowing(growing, 20) {
		t.Error("a queue that grew by 10 requests was reported as growing past a 20-request margin")
	}
	busy := make([]int, 300)
	for i := range busy {
		busy[i] = 8 + steady[i]
	}
	if backlogGrowing(busy, 0) {
		t.Error("a busy but stable queue was reported as growing")
	}
	if backlogGrowing([]int{0, 5}, 0) {
		t.Error("two samples cannot show a trend")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g, %g; want 1.5, 4.5", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread(1..5) = %g, want 1", got)
	}
}

func TestCheckDigestsCountsMissingItems(t *testing.T) {
	items := []string{"a", "b", "c"}
	stored := []string{digest("a"), digest("b"), digest("c")}
	if got := checkDigests(stored, items); got != 0 {
		t.Errorf("checkDigests(equal) = %d, want 0", got)
	}
	if got := checkDigests(stored, items[:1]); got != 2 {
		t.Errorf("checkDigests(two items missing) = %d, want 2", got)
	}
	if got := checkDigests(stored, nil); got != 3 {
		t.Errorf("checkDigests(no items) = %d, want 3", got)
	}
	if got := checkDigests(stored, []string{"a", "x", "c", "d"}); got != 2 {
		t.Errorf("checkDigests(one changed, one extra) = %d, want 2", got)
	}
}

func TestSustainedRate(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		name  string
		rungs []rungStat
		want  float64
	}{
		{"every rung passes", []rungStat{{100, 20, false}, {200, 90, false}}, 200},
		{"first rung fails", []rungStat{{100, 300, false}, {200, 900, true}}, 0},
		// p90 from 100 to 400 ms; the 200 ms limit is halfway in log latency.
		{"interpolated crossing", []rungStat{{100, 20, false}, {200, 100, false}, {220, 400, true}, {240, 30, false}}, 210},
		{"failed request on the next rung", []rungStat{{100, 20, false}, {200, 100, false}, {220, inf, false}}, 200},
		{"growing backlog within the limit", []rungStat{{100, 20, false}, {200, 100, false}, {220, 150, true}}, 200},
		{"no rungs", nil, 0},
	} {
		if got := sustainedRate(c.rungs, 200); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: sustainedRate = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	m := metricDef{Name: "x", Better: "higher", Bound: 0.1}
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	b := []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}
	if v, win := verdict(m, a, b); v != "better" || win != 1 {
		t.Errorf("verdict(clear gain) = %q, win %g", v, win)
	}
	if v, _ := verdict(m, b, a); v != "within bound" {
		t.Errorf("verdict(9%% loss under a 10%% bound) = %q", v)
	}
	worse := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	if v, _ := verdict(m, a, worse); v != "WORSE" {
		t.Errorf("verdict(20%% loss) = %q", v)
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	if v, _ := verdict(m, a, noisy); v != "unresolved (spread above bound)" {
		t.Errorf("verdict(noisy) = %q", v)
	}
}

func TestCompareTableKeepsPairsAndCountsFailedRuns(t *testing.T) {
	run := func(v float64, failed int) sample {
		s := sample{decoded: true}
		s.res.Attempted, s.res.Failed = 10, failed
		s.res.Metrics = map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{"x": {Value: v}}
		if failed > 0 {
			s.err = errors.New("exit status 1")
		}
		return s
	}
	a := []sample{run(1, 0), run(2, 0), run(3, 0)}
	b := []sample{run(10, 0), run(20, 4), run(30, 0)}
	va, vb := pairValues(a, b, "x")
	if len(va) != 2 || va[0] != 1 || va[1] != 3 || vb[0] != 10 || vb[1] != 30 {
		t.Errorf("pairValues = %v, %v; want the failed pair dropped from both sides", va, vb)
	}
	lines := compareTable([]metricDef{{Name: "x", Better: "higher", Bound: 0.1}}, a, b)
	if last := lines[len(lines)-1]; last != "failed outputs: A 0 of 30, B 4 of 30" {
		t.Errorf("failed outputs line = %q", last)
	}
}

// TestBenchmarkJSONIsGenerated pins BENCHMARK.json to the metric tables
// the harness reports from, so the two cannot drift apart.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON(defaultRunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != string(want) {
		t.Error("BENCHMARK.json differs from the harness's tables; regenerate it with: bash perfbench/run.sh spec > BENCHMARK.json")
	}
}
