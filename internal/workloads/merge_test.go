package workloads

import (
	"fmt"
	"sort"
	"testing"

	"hmccoal/internal/trace"
)

// sortStreams is the order build produced before it merged: the per-core
// streams concatenated in CPU order, then stably sorted on (Tick, CPU).
func sortStreams(streams [][]trace.Access, _ int) []trace.Access {
	var all []trace.Access
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Tick != all[j].Tick {
			return all[i].Tick < all[j].Tick
		}
		return all[i].CPU < all[j].CPU
	})
	return all
}

// generateSorted runs g with sortStreams in place of the merge.
func generateSorted(t *testing.T, g Generator, p Params) []trace.Access {
	t.Helper()
	defer func() { mergeStreams = merge }()
	mergeStreams = sortStreams
	accs, err := g.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

// TestMergeMatchesSort pins build's merge to the sort it replaced, across
// every generator, core count, seed and think scale. FT's bursts put many
// accesses of one core on one tick, and cores meet on equal ticks, so both
// kinds of tie are covered; the test counts the cross-core ties to prove it.
func TestMergeMatchesSort(t *testing.T) {
	gens := append(All(), StrideLadder()...)
	crossTies := 0
	for _, g := range gens {
		for _, cpus := range []int{1, 4, 12} {
			for _, seed := range []int64{1, 97} {
				for _, think := range []float64{0, 0.5, 3} {
					p := Params{CPUs: cpus, OpsPerCPU: 300, Seed: seed, ThinkScale: think}
					name := fmt.Sprintf("%s/cpus%d/seed%d/think%g", g.Name(), cpus, seed, think)
					want := generateSorted(t, g, p)
					got, err := g.Generate(p)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: merge gave %d accesses, sort %d", name, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: access %d is %+v, sort gives %+v", name, i, got[i], want[i])
						}
						if i > 0 && got[i].Tick == got[i-1].Tick && got[i].CPU != got[i-1].CPU {
							crossTies++
						}
					}
					last := make([]uint64, cpus)
					for i, a := range got {
						if a.Tick < last[a.CPU] {
							t.Fatalf("%s: CPU %d goes back from tick %d to %d at access %d",
								name, a.CPU, last[a.CPU], a.Tick, i)
						}
						last[a.CPU] = a.Tick
					}
				}
			}
		}
	}
	if crossTies == 0 {
		t.Error("no two cores ever shared a tick: the CPU tie-break went untested")
	}
}

func TestMergeEdgeCases(t *testing.T) {
	acc := func(cpu uint8, tick uint64, addr uint64) trace.Access {
		return trace.Access{Addr: addr, Size: 8, CPU: cpu, Tick: tick}
	}
	for _, streams := range [][][]trace.Access{
		{},
		{nil, nil},
		{nil, {acc(1, 5, 1), acc(1, 5, 2)}, nil},
		{{acc(0, 7, 1), acc(0, 7, 2)}, {acc(1, 7, 3)}, {acc(2, 3, 4), acc(2, 7, 5), acc(2, 9, 6)}},
		{{acc(0, 9, 1)}, {acc(1, 1, 2), acc(1, 9, 3), acc(1, 9, 4)}},
	} {
		n := 0
		for _, s := range streams {
			n += len(s)
		}
		want := sortStreams(streams, n)
		got := merge(append([][]trace.Access(nil), streams...), n)
		if len(got) != n || cap(got) != n {
			t.Errorf("merge of %v: len %d cap %d, want %d", streams, len(got), cap(got), n)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("merge of %v: access %d is %+v, want %+v", streams, i, got[i], want[i])
				break
			}
		}
	}
}
