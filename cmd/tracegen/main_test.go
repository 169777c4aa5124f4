package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestConfigErrors pins the usage exit code for bad configuration, and that
// no trace file is written when generation is refused.
func TestConfigErrors(t *testing.T) {
	dir := t.TempDir()
	for name, argv := range map[string][]string{
		"negative think": {"-think", "-1"},
		"NaN think":      {"-think", "NaN"},
		"infinite think": {"-think", "+Inf"},
		"bad benchmark":  {"-bench", "HPGC"},
		"bad format":     {"-format", "xml"},
	} {
		out := filepath.Join(dir, name+".trace")
		argv = append(argv, "-ops", "10", "-o", out)
		if code := run(argv); code != exitUsage {
			t.Errorf("%s (%v): exit %d, want %d", name, argv, code, exitUsage)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s: wrote %s despite the error", name, out)
		}
	}
}
