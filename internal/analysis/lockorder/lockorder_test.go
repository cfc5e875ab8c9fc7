package lockorder_test

import (
	"testing"

	"github.com/eosdb/eos/internal/analysis/analyzertest"
	"github.com/eosdb/eos/internal/analysis/lockorder"
)

func TestLockorder(t *testing.T) {
	analyzertest.Run(t, "../testdata", lockorder.Analyzer, "lockorder_bad", "lockorder_clean")
}

// TestInterprocedural runs the call-chain fixtures (deadlock_*, named
// after the retired whole-program twin): lock-order inversions whose
// acquisitions sit in different functions.
func TestInterprocedural(t *testing.T) {
	analyzertest.Run(t, "../testdata", lockorder.Analyzer, "deadlock_bad", "deadlock_clean")
}
