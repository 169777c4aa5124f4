package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the hmcsoak entrypoint for the re-exec test: when
// the env var is set, the test binary IS hmcsoak, so the signal test
// signals a real process.
func TestMain(m *testing.M) {
	if args := os.Getenv("HMCSOAK_CHILD_ARGS"); args != "" {
		os.Exit(run(strings.Split(args, "\x1f")))
	}
	os.Exit(m.Run())
}

// TestFlagValidation pins the usage exit code for malformed soak flags.
func TestFlagValidation(t *testing.T) {
	for name, argv := range map[string][]string{
		"negative workers": {"-workers", "-3", "-runs", "1"},
		"zero runs":        {"-runs", "0"},
		"negative runs":    {"-runs", "-5"},
		"bad backend":      {"-backend", "sram", "-runs", "1"},
		"bad frontend":     {"-frontend", "simd", "-runs", "1"},
		"bad sched":        {"-sched", "lifo", "-runs", "1"},
	} {
		if code := run(argv); code != exitUsage {
			t.Errorf("%s (%v): exit %d, want %d", name, argv, code, exitUsage)
		}
	}
}

// child re-execs the test binary as hmcsoak with args.
func child(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "HMCSOAK_CHILD_ARGS="+strings.Join(args, "\x1f"))
	return cmd
}

// campaign runs hmcsoak with args to completion and returns its stdout.
func campaign(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := child(args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("hmcsoak %v: %v", args, err)
	}
	return out
}

// TestSIGTERMDrains: SIGTERM stops a checkpointed campaign the way Ctrl-C
// does — the process drains and exits on its own with the finished
// scenarios checkpointed — and the rerun resumes to stdout byte-identical
// to an uninterrupted campaign.
func TestSIGTERMDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e")
	}
	const runs = 300
	args := []string{"-seed", "1", "-runs", strconv.Itoa(runs), "-workers", "1", "-repro-dir", ""}
	ckpt := filepath.Join(t.TempDir(), "soak.jsonl")

	cmd := child(append(args, "-checkpoint", ckpt)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		// The first line is the header; wait for the first scenario line.
		if b, _ := os.ReadFile(ckpt); bytes.Count(b, []byte("\n")) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("checkpoint never got a scenario line")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if !cmd.ProcessState.Exited() {
		t.Fatalf("SIGTERM killed hmcsoak instead of draining it: %v", cmd.ProcessState)
	}
	if code := cmd.ProcessState.ExitCode(); code == 0 {
		t.Fatalf("campaign finished before SIGTERM landed; raise the run count (stderr: %s)", stderr.String())
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")) - 1; n <= 0 || n >= runs {
		t.Fatalf("interrupted campaign checkpointed %d of %d scenarios", n, runs)
	}

	resumed := campaign(t, append(args, "-checkpoint", ckpt)...)
	want := campaign(t, args...)
	if !bytes.Equal(resumed, want) {
		t.Errorf("resumed campaign differs from an uninterrupted one\nresumed: %s\nwant:    %s", resumed, want)
	}
}

// TestCheckpointCampaignMismatch: a soak checkpoint is bound to its
// campaign, so resuming it under another -seed or -backend exits 1
// instead of reporting the first campaign's outcomes as the second's.
func TestCheckpointCampaignMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "soak.jsonl")
	args := []string{"-runs", "3", "-workers", "1", "-repro-dir", "", "-checkpoint", ckpt}
	if code := run(append([]string{"-seed", "1"}, args...)); code != 0 {
		t.Fatalf("first campaign: exit %d", code)
	}
	for _, flip := range [][]string{{"-seed", "2"}, {"-seed", "1", "-backend", "ddr"}} {
		if code := run(append(flip, args...)); code != exitUsage {
			t.Errorf("resume with %v: exit %d, want %d", flip, code, exitUsage)
		}
	}
	if code := run(append([]string{"-seed", "1"}, args...)); code != 0 {
		t.Errorf("same-campaign resume: exit %d, want 0", code)
	}
}
