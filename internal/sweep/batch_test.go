package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// squareGroup is a MapBatch group fn computing i*i per index.
func squareGroup(_ context.Context, idxs []int) ([]int, error) {
	out := make([]int, len(idxs))
	for k, i := range idxs {
		out[k] = i * i
	}
	return out, nil
}

// TestMapBatchMatchesMap: the grouped engine must produce the same results
// as the per-job engine at any batch width and worker count.
func TestMapBatchMatchesMap(t *testing.T) {
	const n = 23
	want, err := Map(context.Background(), n, Options{Workers: 1}, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{0, 1, 3, 8, 23, 100} {
		for _, workers := range []int{1, 4} {
			got, err := MapBatch(context.Background(), n, batch, Options{Workers: workers}, squareGroup)
			if err != nil {
				t.Fatalf("batch=%d workers=%d: %v", batch, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch=%d workers=%d: results %v, want %v", batch, workers, got, want)
			}
		}
	}
}

// TestMapBatchProgressPerJob: progress ticks once per job (+1 increments),
// never once per group — sweep drivers and their tests rely on it.
func TestMapBatchProgressPerJob(t *testing.T) {
	const n = 10
	var mu sync.Mutex
	var last, calls int
	_, err := MapBatch(context.Background(), n, 4, Options{
		Workers: 1,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done != last+1 {
				t.Errorf("progress jumped from %d to %d", last, done)
			}
			if total != n {
				t.Errorf("progress total %d, want %d", total, n)
			}
			last = done
			calls++
		},
	}, squareGroup)
	if err != nil {
		t.Fatal(err)
	}
	if calls != n {
		t.Errorf("progress called %d times, want %d", calls, n)
	}
}

// TestMapBatchPanicNamesGroup: a panicking group is attributed to its
// first job index and the sweep survives.
func TestMapBatchPanicNamesGroup(t *testing.T) {
	_, err := MapBatch(context.Background(), 9, 3, Options{Workers: 1, KeepGoing: true},
		func(_ context.Context, idxs []int) ([]int, error) {
			if idxs[0] == 3 {
				panic("lane blew up")
			}
			return make([]int, len(idxs)), nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v, want a PanicError", err)
	}
	if pe.Job != 3 {
		t.Errorf("panic attributed to job %d, want 3", pe.Job)
	}
}

// TestMapBatchResultCountMismatch: a group returning the wrong number of
// results is an engine-level error naming the group.
func TestMapBatchResultCountMismatch(t *testing.T) {
	_, err := MapBatch(context.Background(), 4, 2, Options{Workers: 1},
		func(_ context.Context, idxs []int) ([]int, error) {
			return make([]int, len(idxs)-1), nil
		})
	if err == nil {
		t.Fatal("short result slice accepted")
	}
}

// TestMapBatchCheckpointInterop: a checkpoint written by a batched sweep
// must restore into an unbatched one and vice versa — the per-job line
// format is the contract.
func TestMapBatchCheckpointInterop(t *testing.T) {
	const n = 8
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")

	// Batched sweep fails halfway: jobs 0..3 checkpointed, the rest not.
	var ran1 []int
	var mu sync.Mutex
	_, err := MapBatch(context.Background(), n, 2, Options{Workers: 1, Checkpoint: ckpt},
		func(_ context.Context, idxs []int) ([]int, error) {
			mu.Lock()
			ran1 = append(ran1, idxs...)
			mu.Unlock()
			if idxs[0] >= 4 {
				return nil, fmt.Errorf("deliberate failure at job %d", idxs[0])
			}
			out := make([]int, len(idxs))
			for k, i := range idxs {
				out[k] = i * 10
			}
			return out, nil
		})
	if err == nil {
		t.Fatal("first pass should fail")
	}

	// Unbatched resume: only the unfinished jobs run.
	var ran2 []int
	got, err := Map(context.Background(), n, Options{Workers: 1, Checkpoint: ckpt},
		func(_ context.Context, i int) (int, error) {
			mu.Lock()
			ran2 = append(ran2, i)
			mu.Unlock()
			return i * 10, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[i] != i*10 {
			t.Errorf("result[%d] = %d, want %d", i, got[i], i*10)
		}
	}
	for _, i := range ran2 {
		if i < 4 {
			t.Errorf("resume recomputed checkpointed job %d", i)
		}
	}

	// And a batched resume of a now-complete checkpoint runs nothing.
	_, err = MapBatch(context.Background(), n, 3, Options{Workers: 1, Checkpoint: ckpt},
		func(_ context.Context, idxs []int) ([]int, error) {
			t.Errorf("complete checkpoint recomputed group %v", idxs)
			return make([]int, len(idxs)), nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDuplicateLinesLastWins pins the duplicate-index contract:
// an interrupted append that was re-appended on resume leaves two lines
// for one job, and restore must take the last complete one. The torn line
// in the middle of the file must cost only itself — every line after it
// still restores (the old decoder-based scan lost the whole tail).
func TestCheckpointDuplicateLinesLastWins(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	content := header("", 4) + `{"job":0,"result":1}
{"job":1,"result":10}
{"job":2,"res
{"job":1,"result":11}
{"job":3,"result":30}
`
	if err := os.WriteFile(ckpt, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var ran []int
	got, err := Map(context.Background(), 4, Options{Workers: 1, Checkpoint: ckpt},
		func(_ context.Context, i int) (int, error) {
			ran = append(ran, i)
			return 100 + i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, []int{2}) {
		t.Errorf("jobs recomputed: %v, want [2] (only the torn line)", ran)
	}
	want := []int{1, 11, 102, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored results %v, want %v (job 1 last-wins, job 3 survives the torn line)", got, want)
	}
}

// TestCheckpointDuplicateBrokenPayloadKeptOut: a duplicate whose payload
// does not decode cannot supersede an earlier good record.
func TestCheckpointDuplicateBrokenPayloadKeptOut(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	content := header("", 2) + `{"job":0,"result":7}
{"job":0,"result":"not an int"}
`
	if err := os.WriteFile(ckpt, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Map(context.Background(), 2, Options{Workers: 1, Checkpoint: ckpt},
		func(_ context.Context, i int) (int, error) { return 100 + i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Errorf("job 0 restored as %d, want 7 (broken duplicate must not supersede)", got[0])
	}
}
