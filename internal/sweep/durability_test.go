package sweep

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointCreationIsAtomic pins the durable-creation contract: a
// sweep's checkpoint file is born via temp-file + rename, so after the
// sweep the directory holds exactly the checkpoint — no orphaned temp
// files — and the file carries the header plus every completed job.
func TestCheckpointCreationIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	if _, err := Map(context.Background(), 6, Options{Workers: 2, Checkpoint: path},
		func(_ context.Context, i int) (int, error) { return i * i, nil }); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("orphaned temp file %q left behind", e.Name())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), header("", 6)) {
		t.Errorf("checkpoint does not start with its header: %q", data)
	}
	if n := strings.Count(string(data), "\n"); n != 1+6 {
		t.Errorf("checkpoint holds %d lines, want the header and 6 jobs", n)
	}
}

// TestOpenCheckpointAppendsToExisting proves opening an existing
// checkpoint never truncates it: the durable-creation path only runs for
// missing files, and resumes append behind the restored lines.
func TestOpenCheckpointAppendsToExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	calls := 0
	run := func(_ context.Context, i int) (int, error) { calls++; return i + 10, nil }

	// First pass completes half the grid by running with a grid that
	// matches, then the resume must restore those lines and only run the
	// remainder.
	if _, err := Map(context.Background(), 4, Options{Workers: 1, Checkpoint: path}, run); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	got, err := Map(context.Background(), 4, Options{Workers: 1, Checkpoint: path}, run)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("resume recomputed %d jobs, want 0", calls)
	}
	for i, v := range got {
		if v != i+10 {
			t.Errorf("restored job %d = %d, want %d", i, v, i+10)
		}
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(second) != string(first) {
		t.Error("restore-only resume modified the checkpoint file")
	}
}
