package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointFlushedOnCancellation pins the write-through contract of
// the checkpoint writer: a job that completed before the context was
// cancelled is on disk when MapBatch returns — cancellation (or a crash
// right after it) can never lose finished work to a buffer.
func TestCheckpointFlushedOnCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const n = 6
	completed := 0
	_, err := MapBatch(ctx, n, 2, Options{Workers: 1, Checkpoint: path},
		func(_ context.Context, idxs []int) ([]int, error) {
			out := make([]int, len(idxs))
			for k, i := range idxs {
				out[k] = i * 11
			}
			completed += len(idxs)
			if completed >= 4 {
				// Cancel mid-sweep, right after this group finishes: the
				// group's results must still reach the checkpoint.
				cancel()
			}
			return out, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if completed >= n {
		t.Fatalf("sweep ran all %d jobs; cancellation never interrupted it", n)
	}

	// Every completed job must already be a durable checkpoint line.
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if lines := strings.Count(string(data), "\n") - 1; lines != completed {
		t.Fatalf("checkpoint holds %d job lines after its header, want %d (completed jobs)", lines, completed)
	}

	// And a resumed sweep must skip exactly those jobs.
	reran := 0
	res, err := MapBatch(context.Background(), n, 2, Options{Workers: 1, Checkpoint: path},
		func(_ context.Context, idxs []int) ([]int, error) {
			out := make([]int, len(idxs))
			for k, i := range idxs {
				out[k] = i * 11
			}
			reran += len(idxs)
			return out, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if reran != n-completed {
		t.Fatalf("resume recomputed %d jobs, want %d", reran, n-completed)
	}
	for i, v := range res {
		if v != i*11 {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*11)
		}
	}
}
