// Package analysis collects the eoslint analyzer suite: the custom
// go/analysis checkers that machine-enforce the storage engine's
// concurrency and recovery invariants — acquire/release pairing
// (pairs), latch order and deadlock freedom (lockorder), the §4.5
// write-ahead rule (walfirst), §8.1 force-ordering dominance
// (forcedom), the Eraser lockset rule (racecheck), guarded-field
// locking, pin lifetimes, atomics discipline, and error wrapping — plus
// the audit that keeps the //eoslint:ignore exception inventory honest.
// Each invariant has one implementation: the interprocedural passes
// run over the internal ssa facility, with per-function summaries
// propagated across packages as analysis facts, and a check within one
// function is the case where every callee summary is empty.
//
// The suite runs under `go vet` via cmd/eoslint and in CI via
// scripts/lint.sh; see the "Static analysis" section of README.md and
// DESIGN.md §7 for the analyzer-to-invariant mapping.
package analysis

import (
	goanalysis "golang.org/x/tools/go/analysis"

	"github.com/eosdb/eos/internal/analysis/atomicfield"
	"github.com/eosdb/eos/internal/analysis/errwrap"
	"github.com/eosdb/eos/internal/analysis/forcedom"
	"github.com/eosdb/eos/internal/analysis/guardedby"
	"github.com/eosdb/eos/internal/analysis/lockorder"
	"github.com/eosdb/eos/internal/analysis/pairs"
	"github.com/eosdb/eos/internal/analysis/racecheck"
	"github.com/eosdb/eos/internal/analysis/unusedignore"
	"github.com/eosdb/eos/internal/analysis/useafterunpin"
	"github.com/eosdb/eos/internal/analysis/walfirst"
)

// Analyzers returns the eoslint suite.  unusedignore must come after
// the checkers it audits only in the sense of the Requires graph; the
// driver orders execution by that graph, not by this slice.
func Analyzers() []*goanalysis.Analyzer {
	return []*goanalysis.Analyzer{
		pairs.Analyzer,
		lockorder.Analyzer,
		atomicfield.Analyzer,
		walfirst.Analyzer,
		errwrap.Analyzer,
		useafterunpin.Analyzer,
		guardedby.Analyzer,
		forcedom.Analyzer,
		racecheck.Analyzer,
		unusedignore.Analyzer,
	}
}
