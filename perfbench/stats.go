package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spreads printed here equal the ones a Python check
// computes from the same values. Fewer than two samples give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(med)
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps p·n/100 that is whole in exact arithmetic (99.9 % of
// 10000) from rounding up past it.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile is the nearest-rank p-th percentile of xs (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), p)-1]
}

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentiles are the tail ranks a timing may be reported at.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile picks the highest tail rank that still has at least ten
// of n samples beyond it, so a reported tail is never one outlier. It
// returns 0 when even the median has fewer than ten samples above it.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// openLoopRecord is one request of an open-loop schedule: when it was due,
// when the generator actually sent it, and when it was seen to complete.
// All offsets are from the start of the schedule.
type openLoopRecord struct {
	due, sent, done time.Duration
	ok              bool // completed with a correct result
}

// openLoopLatencies returns each request's latency, timed from its due
// time so a stall that delays later sends counts against them, and the
// generator's lateness (sent minus due) for every send. A request that
// failed or was refused has infinite latency: it misses any limit.
func openLoopLatencies(recs []openLoopRecord) (latency, late []float64) {
	latency = make([]float64, len(recs))
	late = make([]float64, len(recs))
	for i, r := range recs {
		late[i] = ms(r.sent - r.due)
		if r.ok {
			latency[i] = ms(r.done - r.due)
		} else {
			latency[i] = math.Inf(1)
		}
	}
	return latency, late
}

// backlogGrowing reports whether a series of outstanding-request counts,
// sampled at every send of one rate rung, shows a queue that keeps
// growing: the last third of the rung holds clearly more outstanding work
// than the first third, by half again and by more than minGrowth
// requests (and at least two). A queue that is merely busy fluctuates
// around a level and does not trip it.
func backlogGrowing(outstanding []int, minGrowth float64) bool {
	n := len(outstanding) / 3
	if n == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	first := mean(outstanding[:n])
	last := mean(outstanding[len(outstanding)-n:])
	return last > first+max(2, minGrowth) && last > 1.5*first
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rungStat is how one rate of a load ladder went.
type rungStat struct {
	rate    float64 // offered requests per second
	p90     float64 // p90 latency in ms, +Inf when a request failed
	growing bool    // the backlog grew over the rung
}

// sustainedRate is the highest rate an ascending ladder sustains: every
// rung up to it keeps its p90 within limit without a growing backlog.
// When the next rung misses the limit by a finite p90, the rate is
// interpolated in log latency to where p90 crosses the limit, so the
// figure moves with the service rather than a whole rung at a time. It is
// the top rate when every rung passes and 0 when the first one fails.
func sustainedRate(rungs []rungStat, limit float64) float64 {
	for i, r := range rungs {
		if r.p90 <= limit && !r.growing {
			continue
		}
		if i == 0 {
			return 0
		}
		prev := rungs[i-1]
		if r.p90 <= limit || math.IsInf(r.p90, 1) {
			return prev.rate
		}
		f := math.Log(limit/prev.p90) / math.Log(r.p90/prev.p90)
		return prev.rate + f*(r.rate-prev.rate)
	}
	if len(rungs) == 0 {
		return 0
	}
	return rungs[len(rungs)-1].rate
}
