package main

import "testing"

// TestFlagValidation pins the usage exit code for malformed worker-pool,
// machine and fault flags: they are rejected before any device run starts,
// and -sweep refuses the pattern-only -frontend and -faults rather than
// silently dropping them.
func TestFlagValidation(t *testing.T) {
	for name, argv := range map[string][]string{
		"negative workers": {"-workers", "-1", "-sweep"},
		"negative batch":   {"-batch", "-2", "-sweep"},
		"bad size":         {"-size", "17"},
		"bad backend":      {"-backend", "sram"},
		"bad pattern":      {"-pattern", "zigzag", "-n", "1"},
		"bad faults":       {"-faults", "garbage", "-n", "1"},
		"faults off hmc":   {"-faults", "seed=1,ber=1e-3", "-backend", "ddr", "-n", "1"},
		"sweep faults":     {"-sweep", "-faults", "seed=1,ber=1e-3"},
		"sweep ddr faults": {"-sweep", "-backend", "ddr", "-faults", "seed=1,ber=1e-3"},
		"sweep frontend":   {"-sweep", "-frontend", "warp"},
		"sched sans fe":    {"-sched", "hetero", "-n", "1"},
	} {
		if code := run(argv); code != exitUsage {
			t.Errorf("%s (%v): exit %d, want %d", name, argv, code, exitUsage)
		}
	}
}
