package crashtest

import (
	"os"
	"testing"

	"github.com/eosdb/eos"
)

func sweepConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Seed:           42,
		Workload:       WorkloadConfig{Seed: 42, Txns: 120},
		Opts:           eos.Options{Threshold: 4},
		SubsetEvery:    6,
		SubsetSamples:  2,
		TornCap:        6,
		FileCheckEvery: 64,
		FileDir:        t.TempDir(),
		ReopenEvery:    16,
		RecrashEvery:   24,
		Logf:           t.Logf,
	}
}

// TestCrashSweep is the tier-1 crash-consistency gate: enumerate crash
// states of a mixed workload and require every recovery invariant to
// hold on each.  Short mode runs a reduced but still multi-hundred-state
// sweep.
func TestCrashSweep(t *testing.T) {
	cfg := sweepConfig(t)
	if testing.Short() {
		cfg.Workload.Txns = 30
		cfg.SubsetEvery = 12
		cfg.SubsetSamples = 1
		cfg.TornCap = 3
		cfg.FileCheckEvery = 96
		cfg.ReopenEvery = 32
		cfg.RecrashEvery = 48
	}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	report(t, res)
	if !testing.Short() && res.States < 1500 {
		t.Fatalf("sweep enumerated only %d distinct states, want >= 1500", res.States)
	}
}

// TestCrashSweepFull is the exhaustive nightly sweep; set
// EOS_CRASH_SWEEP_FULL=1 to run it.
func TestCrashSweepFull(t *testing.T) {
	if os.Getenv("EOS_CRASH_SWEEP_FULL") == "" {
		t.Skip("set EOS_CRASH_SWEEP_FULL=1 to run the full sweep")
	}
	for _, seed := range []int64{42, 1337, 9001} {
		cfg := sweepConfig(t)
		cfg.Seed = seed
		cfg.Workload = WorkloadConfig{Seed: seed, Txns: 300}
		cfg.SubsetEvery = 3
		cfg.SubsetSamples = 4
		cfg.TornCap = 0 // every split
		cfg.FileCheckEvery = 32
		cfg.ReopenEvery = 8
		cfg.RecrashEvery = 12
		res, err := Sweep(cfg)
		if err != nil {
			t.Fatalf("seed %d: sweep: %v", seed, err)
		}
		t.Logf("seed %d:", seed)
		report(t, res)
	}
}

func report(t *testing.T, res *Result) {
	t.Helper()
	t.Logf("crash sweep: %d events, %d positions, %d candidates, %d distinct states recovered (%d on file backend, %d re-crash probes), %d violations",
		res.Events, res.Positions, res.Candidates, res.States, res.FileStates, res.Recrashes, len(res.Violations))
	for i, v := range res.Violations {
		if i >= 10 {
			t.Logf("... and %d more violations", len(res.Violations)-10)
			break
		}
		t.Errorf("violation: %s", v)
	}
}
