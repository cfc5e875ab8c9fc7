package walfirst_test

import (
	"testing"

	"github.com/eosdb/eos/internal/analysis/analyzertest"
	"github.com/eosdb/eos/internal/analysis/walfirst"
)

func TestWalfirst(t *testing.T) {
	analyzertest.Run(t, "../testdata", walfirst.Analyzer, "walfirst_bad", "walfirst_clean")
}

// TestInterprocedural runs the call-chain fixtures (walfirstip_*, named
// after the retired whole-program twin): mutations reached through
// callees that are not covered by a log append on every path.
func TestInterprocedural(t *testing.T) {
	analyzertest.Run(t, "../testdata", walfirst.Analyzer, "walfirstip_bad", "walfirstip_clean")
}
