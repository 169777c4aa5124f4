package trace

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	accs := []Access{
		{Addr: 0, Size: 8, Kind: Load, CPU: 0, Tick: 10},
		{Addr: 64, Size: 16, Kind: Store, CPU: 1, Tick: 20},
		{Kind: FenceOp, CPU: 0, Tick: 25},
		{Addr: 60, Size: 8, Kind: Load, CPU: 0, Tick: 30}, // spans lines 0 and 1
	}
	s := Summarize(accs)
	if s.Accesses != 4 || s.Loads != 2 || s.Stores != 1 || s.Fences != 1 {
		t.Errorf("counts = %+v", s)
	}
	if s.PayloadBytes != 32 {
		t.Errorf("PayloadBytes = %d, want 32", s.PayloadBytes)
	}
	if s.FootprintBytes != 128 { // lines 0 and 1
		t.Errorf("FootprintBytes = %d, want 128", s.FootprintBytes)
	}
	if s.SpanTicks != 20 || s.CPUs != 2 {
		t.Errorf("span/cpus = %d/%d", s.SpanTicks, s.CPUs)
	}
	if str := s.String(); !strings.Contains(str, "4 accesses") {
		t.Errorf("String() = %q", str)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.Accesses != 0 || s.FootprintBytes != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestMergePreservesOrder(t *testing.T) {
	a := []Access{{Addr: 1, Size: 1, Tick: 5}, {Addr: 2, Size: 1, Tick: 5}, {Addr: 3, Size: 1, Tick: 9}}
	b := []Access{{Addr: 10, Size: 1, Tick: 3}, {Addr: 11, Size: 1, Tick: 7}}
	m := Merge(a, b)
	if len(m) != 5 {
		t.Fatalf("merged %d accesses", len(m))
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	// Same-tick entries from one source keep their relative order.
	i1, i2 := -1, -1
	for i, acc := range m {
		if acc.Addr == 1 {
			i1 = i
		}
		if acc.Addr == 2 {
			i2 = i
		}
	}
	if i1 > i2 {
		t.Error("stable order violated for same-tick accesses")
	}
}

// TestMergeMatchesSliceStable pins Merge to the reflective stable sort it
// replaced, on sources that are themselves out of tick order and share
// ticks within and across sources.
func TestMergeMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		srcs := make([][]Access, 1+rng.Intn(5))
		addr := uint64(0)
		for i := range srcs {
			for n := rng.Intn(40); n > 0; n-- {
				addr++
				srcs[i] = append(srcs[i], Access{Addr: addr, Size: 8, CPU: uint8(i), Tick: uint64(rng.Intn(20))})
			}
		}
		var want []Access
		for _, s := range srcs {
			want = append(want, s...)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Tick < want[j].Tick })

		got := Merge(srcs...)
		if len(got) != len(want) {
			t.Fatalf("round %d: merged %d accesses, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: access %d is %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}

func TestValidate(t *testing.T) {
	good := []Access{{Addr: 0, Size: 4, Tick: 1}, {Kind: FenceOp, Tick: 2}, {Addr: 8, Size: 4, Tick: 2}}
	if err := Validate(good); err != nil {
		t.Fatal(err)
	}
	bad := [][]Access{
		{{Addr: 0, Size: 4, Tick: 5}, {Addr: 0, Size: 4, Tick: 4}}, // ticks decrease
		{{Addr: 0, Size: 0, Tick: 1}},                              // zero size
		{{Addr: 1 << 53, Size: 4, Tick: 1}},                        // address too wide
	}
	for i, accs := range bad {
		if err := Validate(accs); err == nil {
			t.Errorf("case %d: invalid trace accepted", i)
		}
	}
}
