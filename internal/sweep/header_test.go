package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// header is the first line a sweep with key over n jobs writes to its
// checkpoint.
func header(key string, n int) string {
	return fmt.Sprintf("{\"key\":%q,\"n\":%d}\n", key, n)
}

// TestCheckpointHeaderMismatch pins the binding of a checkpoint to its
// sweep: a resume under another key or grid size, or from a file without
// a header (the format that tagged every line instead), fails with
// ErrCheckpointMismatch naming the file before any job runs, and leaves
// the file untouched. The matching sweep still restores every job.
func TestCheckpointHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	calls := 0
	sweepOf := func(key string, n int) error {
		_, err := Map(context.Background(), n, Options{Workers: 1, Checkpoint: path, Key: key},
			func(_ context.Context, i int) (int, error) { calls++; return i + 100, nil })
		return err
	}
	if err := sweepOf("spec-a", 4); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(written), header("spec-a", 4)) {
		t.Fatalf("checkpoint does not start with its header: %q", written)
	}

	legacy := filepath.Join(t.TempDir(), "legacy.ckpt")
	var lines []byte
	for i := 0; i < 4; i++ {
		lines = append(lines, fmt.Sprintf("{\"job\":%d,\"n\":4,\"result\":%d}\n", i, i+100)...)
	}
	if err := os.WriteFile(legacy, lines, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, path, key string
		n               int
	}{
		{"wrong key", path, "spec-b", 4},
		{"wrong n", path, "spec-a", 5},
		{"no header", legacy, "", 4},
		{"empty key", path, "", 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			before, err := os.ReadFile(c.path)
			if err != nil {
				t.Fatal(err)
			}
			calls = 0
			_, err = Map(context.Background(), c.n, Options{Workers: 1, Checkpoint: c.path, Key: c.key},
				func(_ context.Context, i int) (int, error) { calls++; return i, nil })
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("resume returned %v, want ErrCheckpointMismatch", err)
			}
			if !strings.Contains(err.Error(), c.path) {
				t.Errorf("error %q does not name the checkpoint %s", err, c.path)
			}
			if calls != 0 {
				t.Errorf("mismatched resume ran %d jobs, want 0", calls)
			}
			after, err := os.ReadFile(c.path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Error("mismatched resume modified the checkpoint")
			}
		})
	}

	calls = 0
	if err := sweepOf("spec-a", 4); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("matching resume recomputed %d jobs, want 0", calls)
	}
}
