package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the hmccoal entrypoint for the re-exec tests: when
// the env var is set, the test binary IS hmccoal, so a test can read a
// real process's exit code, stdout and stderr apart.
func TestMain(m *testing.M) {
	if args := os.Getenv("HMCCOAL_CHILD_ARGS"); args != "" {
		os.Exit(run(strings.Split(args, "\x1f")))
	}
	os.Exit(m.Run())
}

// TestFlagValidation pins the usage exit code for malformed parallelism,
// machine and distribution flags: negatives must be rejected up front, not
// fed to the sweep engine, and a flag the chosen mode would ignore is an
// error, not a silent no-op.
func TestFlagValidation(t *testing.T) {
	for name, argv := range map[string][]string{
		"negative workers":  {"-workers", "-1", "-list"},
		"negative batch":    {"-batch", "-4", "-list"},
		"zero lease":        {"-lease", "0s", "-list"},
		"negative lease":    {"-lease", "-1m", "-list"},
		"bad serve addr":    {"-serve", "no-such-host-xyz:0:0", "-list"},
		"unknown figure":    {"-fig", "99"},
		"unknown backend":   {"-backend", "sram", "-list"},
		"token sans serve":  {"-token", "s3cret", "-list"},
		"chaos sans serve":  {"-chaos", "seed=1,reset=0.5", "-list"},
		"bad chaos":         {"-serve", "127.0.0.1:0", "-chaos", "reset=2", "-list"},
		"zero attempts":     {"-max-attempts", "0", "-list"},
		"tls sans serve":    {"-tls-cert", "x.crt", "-tls-key", "x.key", "-list"},
		"cert sans key":     {"-serve", "127.0.0.1:0", "-tls-cert", "x.crt", "-list"},
		"key sans cert":     {"-serve", "127.0.0.1:0", "-tls-key", "x.key", "-list"},
		"missing keypair":   {"-serve", "127.0.0.1:0", "-tls-cert", "/no/such.crt", "-tls-key", "/no/such.key", "-list"},
		"unknown frontend":  {"-frontend", "simd", "-list"},
		"unknown sched":     {"-sched", "lifo", "-list"},
		"bad faults":        {"-fig", "1", "-faults", "garbage"},
		"faults sans run":   {"-fig", "1", "-faults", "seed=1,ber=1e-6"},
		"snapshot sans run": {"-fig", "1", "-snapshot-at", "1000"},
		"json sans trace":   {"-fig", "1", "-json"},
		"faults off hmc":    {"-run", "FT", "-backend", "ddr", "-faults", "seed=1,ber=1e-6"},
	} {
		if code := run(argv); code != exitUsage {
			t.Errorf("%s (%v): exit %d, want %d", name, argv, code, exitUsage)
		}
	}
	if code := run([]string{"-list"}); code != 0 {
		t.Errorf("-list: exit %d, want 0", code)
	}
}

// child re-execs the test binary as hmccoal with args and returns its
// exit code, stdout and stderr.
func child(t *testing.T, args ...string) (int, []byte, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "HMCCOAL_CHILD_ARGS="+strings.Join(args, "\x1f"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatalf("hmccoal %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stdout.Bytes(), stderr.String()
}

// TestCheckpointSpecMismatch: a Figure 14 checkpoint written at -ops 400
// must not feed a -ops 1200 run — that resume exits 1 with nothing on
// stdout and names the checkpoint file — while a resume of the same spec
// at another -batch restores every job (the file gains no line) and
// prints the cold run's table byte for byte.
func TestCheckpointSpecMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e")
	}
	ck := filepath.Join(t.TempDir(), "ck")
	fig14 := ck + ".fig14"
	code, cold, stderr := child(t, "-fig", "14", "-ops", "400", "-checkpoint", ck)
	if code != 0 {
		t.Fatalf("cold run: exit %d (stderr: %s)", code, stderr)
	}
	written, err := os.ReadFile(fig14)
	if err != nil {
		t.Fatal(err)
	}

	code, out, stderr := child(t, "-fig", "14", "-ops", "1200", "-checkpoint", ck)
	if code != exitUsage {
		t.Errorf("-ops 1200 resume of a -ops 400 checkpoint: exit %d, want %d", code, exitUsage)
	}
	if len(out) != 0 {
		t.Errorf("mismatched resume printed to stdout:\n%s", out)
	}
	if !strings.Contains(stderr, fig14) {
		t.Errorf("stderr does not name %s: %s", fig14, stderr)
	}

	code, resumed, stderr := child(t, "-fig", "14", "-ops", "400", "-batch", "4", "-checkpoint", ck)
	if code != 0 {
		t.Fatalf("same-spec resume: exit %d (stderr: %s)", code, stderr)
	}
	if !bytes.Equal(resumed, cold) {
		t.Errorf("resumed table differs from the cold run\nresumed: %s\ncold:    %s", resumed, cold)
	}
	if after, err := os.ReadFile(fig14); err != nil || !bytes.Equal(after, written) {
		t.Errorf("same-spec resume recomputed jobs: checkpoint changed (err %v)", err)
	}
}
