package hmccoal

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
)

func sweepTestParams() TraceParams {
	return TraceParams{CPUs: 2, OpsPerCPU: 150, Seed: 7}
}

// TestParallelSweepDeterminism is the tentpole's correctness contract: the
// parallel sweep must produce byte-identical Results to the serial
// (-workers 1) pipeline, at any worker count.
func TestParallelSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	p := sweepTestParams()
	serial, err := RunAllContext(context.Background(), p, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(Benchmarks()) {
		t.Fatalf("serial sweep has %d runs, want %d", len(serial), len(Benchmarks()))
	}
	for _, workers := range []int{0, 3, 16} {
		parallel, err := RunAllContext(context.Background(), p, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: results differ from serial sweep", workers)
		}
		// Byte-identical, not just structurally equal.
		a, _ := json.Marshal(serial)
		b, _ := json.Marshal(parallel)
		if string(a) != string(b) {
			t.Fatalf("workers=%d: serialized results differ", workers)
		}
	}
}

func TestParallelTimeoutSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := sweepTestParams()
	timeouts := []uint64{16, 28}
	serial, err := TimeoutSweepContext(context.Background(), "SG", p, timeouts, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TimeoutSweepContext(context.Background(), "SG", p, timeouts, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("timeout sweep differs: serial %v parallel %v", serial, parallel)
	}
	table1, err := Figure14TableContext(context.Background(), p, timeouts, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tableN, err := Figure14TableContext(context.Background(), p, timeouts, SweepOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if table1 != tableN {
		t.Fatalf("Figure 14 table differs between worker counts:\n%s\nvs\n%s", table1, tableN)
	}
}

func TestSweepProgressReporting(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	var mu sync.Mutex
	var last, calls, total int
	_, err := RunAllContext(context.Background(), sweepTestParams(), SweepOptions{
		Progress: func(done, n int) {
			mu.Lock()
			defer mu.Unlock()
			if done != last+1 {
				t.Errorf("progress jumped from %d to %d", last, done)
			}
			last, calls, total = done, calls+1, n
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * len(Benchmarks()) // 3 architectures + payload analysis each
	if calls != want || total != want {
		t.Errorf("progress: %d calls, grid %d; want %d", calls, total, want)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAllContext(ctx, sweepTestParams(), SweepOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

func TestSweepErrorAborts(t *testing.T) {
	// An impossible trace scale makes every generator fail; the sweep must
	// surface the error instead of returning partial results.
	p := sweepTestParams()
	p.CPUs = 0
	if _, err := RunAllContext(context.Background(), p, SweepOptions{}); err == nil {
		t.Error("sweep with invalid params succeeded")
	}
}

// TestCheckpointKeyCoversSpec walks every field of SweepSpec, recursing
// into Params, and sets each to a non-zero value: the checkpoint key must
// change for every field but Batch, which must leave it unchanged. A knob
// added to the spec later therefore cannot escape the key and let a
// resume restore results computed for other inputs.
func TestCheckpointKeyCoversSpec(t *testing.T) {
	key := func(s SweepSpec) string {
		t.Helper()
		eng, err := SweepOptions{}.engine(s)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Key
	}
	base := key(SweepSpec{})

	var nonZero func(path string, v reflect.Value)
	nonZero = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Uint64:
			v.SetUint(7)
		case reflect.Float64:
			v.SetFloat(0.5)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Slice:
			s := reflect.MakeSlice(v.Type(), 1, 1)
			nonZero(path+"[0]", s.Index(0))
			v.Set(s)
		default:
			t.Fatalf("%s: no non-zero value for kind %v; extend the test", path, v.Kind())
		}
	}

	var walk func(prefix string, typ reflect.Type, field func(s *SweepSpec) reflect.Value)
	visited := map[string]bool{}
	walk = func(prefix string, typ reflect.Type, field func(s *SweepSpec) reflect.Value) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path := prefix + f.Name
			get := func(s *SweepSpec) reflect.Value { return field(s).Field(i) }
			if f.Type.Kind() == reflect.Struct {
				walk(path+".", f.Type, get)
				continue
			}
			visited[path] = true
			var s SweepSpec
			nonZero(path, get(&s))
			changed := key(s) != base
			if path == "Batch" && changed {
				t.Errorf("Batch changes the checkpoint key; batched and unbatched runs must share checkpoints")
			}
			if path != "Batch" && !changed {
				t.Errorf("SweepSpec.%s is not part of the checkpoint key", path)
			}
		}
	}
	walk("", reflect.TypeOf(SweepSpec{}), func(s *SweepSpec) reflect.Value { return reflect.ValueOf(s).Elem() })

	for _, want := range []string{"Kind", "Batch", "Params.CPUs", "Params.OpsPerCPU", "Params.Seed", "Params.ThinkScale"} {
		if !visited[want] {
			t.Errorf("walk never reached SweepSpec.%s", want)
		}
	}
}
