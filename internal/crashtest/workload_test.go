package crashtest

import (
	"testing"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

// TestWorkloadModelMatchesStore validates the oracle bookkeeping: after
// the traced workload, the live store's committed content must equal
// the final oracle state exactly.  (The in-flight loser mutates the
// live store after the last mark, so only the pre-loser content is
// comparable; we reproduce the workload with zero loser ops by reading
// before it starts — here simply by comparing against the last commit
// mark after a clean recovery of the full clean-prefix state.)
func TestWorkloadModelMatchesStore(t *testing.T) {
	trace := &disk.CrashTrace{}
	dataDev, err := recordedVolume(512, 4096, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	logDev, err := recordedVolume(512, 1024, trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eos.Format(dataDev, logDev, eos.Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RunWorkload(st, trace, WorkloadConfig{Seed: 42, Txns: 30, NoLoser: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.Commits) == 0 {
		t.Fatal("no commits recorded")
	}
	got, err := readAll(st)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Commits[len(oracle.Commits)-1].State
	if mapsEqual(got, want) {
		return
	}
	t.Logf("live store:         %v", got)
	t.Logf("final oracle state: %v", want)
	t.Errorf("model diverges from store")
}
