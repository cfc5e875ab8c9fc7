// Package walfirst defines an Analyzer that enforces the paper's §4.5
// write-ahead rule at the transaction layer: no object mutation may
// execute before the operation's write-ahead log record has been
// appended — neither directly in a transaction method nor in any
// helper it calls.
//
// In this engine the WAL boundary lives in the Txn methods (txn.go):
// each operation appends its log record via (*wal.Log).Append and only
// then mutates the lob.Object.  The layers below are safe by
// construction — index-page updates are shadowed (§4.5: "the other
// three operations shadow"), so internal/lob and internal/buddy never
// overwrite committed state in place; the one in-place update, Replace,
// is exactly the one whose pre-image and extents the Txn method logs
// first.
//
// The analyzer computes, bottom-up over the ssa call graph (with
// cross-package propagation through WalFact object facts), two bits per
// function:
//
//   - Exposed: some path through the function reaches a mutation
//     (direct or through further callees) before the function itself
//     has appended a WAL record on that path.
//
//   - AppendsAll: every path from entry to return appends a WAL
//     record, so after a call to the function the caller's logging
//     obligation is discharged (a helper that wraps the append).
//
// The exported methods of Txn are then checked with a forward
// all-paths dataflow: the logged state starts false, a WAL append (or a
// call to an AppendsAll function) sets it, joins take the conjunction,
// and a direct mutation or a call to an Exposed callee in the unlogged
// state is reported — a call with the full chain to the mutation, and
// with the ssa dominator tree's evidence when an append exists but does
// not dominate the call.  Unexported helpers inherit their caller's
// logging context: they are summarized, not reported, so a helper whose
// every caller logs first stays silent.
//
// Interface calls use the CHA resolution: a call is Exposed if any
// candidate is, and AppendsAll only if every candidate is.  Calls that
// resolve to nothing (func values, closures) are treated as neither.
//
// Txn.Abort legitimately violates the letter of the rule — logical
// undo replays pre-images that the forward operations already logged,
// and the abort record is forced before any freed page becomes
// reusable — and carries an //eoslint:ignore walfirst directive with
// that justification.
package walfirst

import (
	"fmt"
	"strings"

	"golang.org/x/tools/go/analysis"

	"github.com/eosdb/eos/internal/analysis/eosutil"
	"github.com/eosdb/eos/internal/analysis/ignore"
	"github.com/eosdb/eos/internal/analysis/ssa"
)

const doc = `check that transactional mutations are preceded by a WAL append (§4.5)

A mutation that can execute before its log record is appended breaks
recovery: a crash between the mutation and the append leaves a change
on disk that the log cannot redo or undo.  Every path from a
transaction method's entry to a mutation — direct, or inside a helper
it calls — must pass a (*wal.Log).Append first.  Function summaries
(may-mutate-before-logging / always-appends) propagate bottom-up over
the call graph and across packages via analysis facts.`

// Analyzer is the walfirst analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "walfirst",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{ssa.Analyzer, ignore.Analyzer},
	Run:       run,
	FactTypes: []analysis.Fact{new(WalFact)},
}

// WalFact is the exported per-function write-ahead summary.
type WalFact struct {
	// Exposed: some path reaches a mutation before this function has
	// appended a WAL record.
	Exposed bool
	// Witness is the call chain from this function to the exposed
	// mutation ("applyAppend → Object.Append").
	Witness []string
	// AppendsAll: every path to return appends a WAL record.
	AppendsAll bool
}

// AFact marks WalFact as an analysis fact.
func (*WalFact) AFact() {}

func (f *WalFact) String() string {
	return fmt.Sprintf("wal(exposed=%t,appends-all=%t)", f.Exposed, f.AppendsAll)
}

// maxChain bounds recorded witness chains.
const maxChain = 8

func run(pass *analysis.Pass) (interface{}, error) {
	pr := pass.ResultOf[ssa.Analyzer].(*ssa.Program)
	c := &checker{pass: pass, pr: pr, ig: ignore.For(pass), summaries: make(map[*ssa.Func]*WalFact)}
	c.summarize()
	for f, sum := range c.summaries {
		if sum.Exposed || sum.AppendsAll {
			pass.ExportObjectFact(f.Obj, sum)
		}
	}
	for _, f := range pr.Funcs {
		// Roots are the exported methods of the transaction type: the
		// API surface where the logging obligation starts.
		if eosutil.RecvTypeName(f.Decl) == "Txn" && f.Obj.Exported() {
			c.checkRoot(f)
		}
	}
	return nil, nil
}

type checker struct {
	pass      *analysis.Pass
	pr        *ssa.Program
	ig        *ignore.Reporter
	summaries map[*ssa.Func]*WalFact
}

// summarize computes the per-function summaries bottom-up, iterating
// each SCC to a fixed point.  Exposed only ever turns on and
// AppendsAll only ever turns off (it starts optimistic), so the
// iteration converges.
func (c *checker) summarize() {
	for _, scc := range c.pr.SCCs {
		for _, f := range scc {
			c.summaries[f] = &WalFact{AppendsAll: true}
		}
		for changed := true; changed; {
			changed = false
			for _, f := range scc {
				sum := c.summaries[f]
				exposed, witness, appendsAll := c.dataflow(f, nil)
				if exposed && !sum.Exposed {
					sum.Exposed, sum.Witness = true, witness
					changed = true
				}
				if !appendsAll && sum.AppendsAll {
					sum.AppendsAll = false
					changed = true
				}
			}
		}
	}
}

// calleeSummary merges the summaries of a call's CHA candidates:
// exposed if any candidate is exposed, appends-all only if every
// candidate appends.
func (c *checker) calleeSummary(in *ssa.Instr) (exposed bool, witness []string, appendsAll bool) {
	if len(in.Callees) == 0 {
		return false, nil, false
	}
	appendsAll = true
	for _, callee := range in.Callees {
		cf := c.summaries[c.pr.ByObj[callee]]
		if cf == nil {
			var imported WalFact
			if c.pass.ImportObjectFact(callee, &imported) {
				cf = &imported
			}
		}
		if cf == nil {
			appendsAll = false
			continue
		}
		if cf.Exposed && !exposed {
			exposed = true
			witness = append([]string{ssa.FuncLabel(c.pass.Pkg, callee)}, cf.Witness...)
			if len(witness) > maxChain {
				witness = witness[:maxChain]
			}
		}
		appendsAll = appendsAll && cf.AppendsAll
	}
	return exposed, witness, appendsAll
}

// exposure is one unlogged mutation or exposed call found by the
// dataflow; witness is nil for a direct mutation.
type exposure struct {
	in      *ssa.Instr
	block   *ssa.Block
	witness []string
}

// dataflow runs the all-paths logged-state analysis over f.  The
// lattice per block is "logged on every path reaching here"; it starts
// optimistic (true) and iterates to the greatest fixed point.  When
// report is non-nil, every unlogged mutation and exposed call is
// appended to it (used for root methods); the returned values are the
// function's own summary bits.
func (c *checker) dataflow(f *ssa.Func, report *[]exposure) (exposed bool, witness []string, appendsAll bool) {
	n := len(f.Blocks)
	inState := make([]bool, n)
	outState := make([]bool, n)
	preds := make([][]*ssa.Block, n)
	for _, b := range f.Blocks {
		inState[b.Index], outState[b.Index] = true, true
		if !f.Reachable(b) {
			continue
		}
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b)
		}
	}

	// scan runs the transfer function over b from the logged state on
	// entry; with final set it also records exposures.
	scan := func(b *ssa.Block, logged, final bool) bool {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Kind {
			case ssa.KWALAppend:
				logged = true
			case ssa.KMutate:
				if final && !logged {
					if !exposed {
						exposed, witness = true, []string{in.MutName}
					}
					if report != nil {
						*report = append(*report, exposure{in: in, block: b})
					}
				}
			case ssa.KCall:
				calleeExposed, calleeWitness, calleeAppends := c.calleeSummary(in)
				if final && calleeExposed && !logged {
					if !exposed {
						exposed, witness = true, calleeWitness
					}
					if report != nil {
						*report = append(*report, exposure{in: in, block: b, witness: calleeWitness})
					}
				}
				logged = logged || calleeAppends
			}
		}
		return logged
	}

	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if !f.Reachable(b) {
				continue
			}
			in := b != f.Entry
			for _, p := range preds[b.Index] {
				in = in && outState[p.Index]
			}
			out := scan(b, in, false)
			if in != inState[b.Index] || out != outState[b.Index] {
				inState[b.Index], outState[b.Index] = in, out
				changed = true
			}
		}
	}

	// Final pass: collect exposures and the exit conjunction.
	appendsAll = true
	sawExit := false
	for _, b := range f.Blocks {
		if !f.Reachable(b) {
			continue
		}
		logged := scan(b, inState[b.Index], true)
		if len(b.Succs) == 0 && b.Raw.Live {
			sawExit = true
			appendsAll = appendsAll && logged
		}
	}
	return exposed, witness, appendsAll && sawExit
}

// checkRoot reports every unlogged mutation and exposed call in a
// transaction method.
func (c *checker) checkRoot(f *ssa.Func) {
	var exposures []exposure
	c.dataflow(f, &exposures)
	for _, e := range exposures {
		if e.witness == nil {
			c.ig.Report(e.in.Call.Pos(),
				"mutation %s can execute before its WAL record is appended; log first (§4.5 write-ahead rule)",
				e.in.MutName)
			continue
		}
		msg := fmt.Sprintf(
			"call can mutate %s before this transaction's WAL record is appended (call chain %s → %s); log first (§4.5 write-ahead rule)",
			e.witness[len(e.witness)-1], f.Name, strings.Join(e.witness, " → "))
		if app := c.skippedAppend(f, e.block); app != "" {
			msg += fmt.Sprintf("; the append at %s does not dominate this call", app)
		}
		c.ig.Report(e.in.Call.Pos(), "%s", msg)
	}
}

// skippedAppend finds a WAL append in f that fails to dominate block b
// — evidence that the append exists but a path from entry skips it.
func (c *checker) skippedAppend(f *ssa.Func, b *ssa.Block) string {
	for _, ab := range f.Blocks {
		if !f.Reachable(ab) || f.Dominates(ab, b) {
			continue
		}
		for i := range ab.Instrs {
			if in := &ab.Instrs[i]; in.Kind == ssa.KWALAppend {
				return fmt.Sprintf("line %d", c.pass.Fset.Position(in.Call.Pos()).Line)
			}
		}
	}
	return ""
}
