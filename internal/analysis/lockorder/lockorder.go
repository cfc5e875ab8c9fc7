// Package lockorder defines an Analyzer that enforces the storage
// engine's documented latch acquisition order, within each function and
// across every call chain.
//
// The engine's locks form a lattice, acquired strictly downward:
//
//	rank 10  Store.mu           (store manager: catalog, txn table)
//	rank 15  LockTable.mu       (transaction lock manager)
//	rank 20  catEntry.latch     (per-object RW latch)
//	rank 30  Txn.wmu            (transaction write set)
//	rank 30  deferredAlloc.mu   (transaction deferred-free list)
//	rank 33  EpochManager.mu    (epoch bookkeeping; leaf-like)
//	rank 35  Manager.mu         (buddy superdirectory latch)
//	rank 38  Pool.flushMu       (buffer pool whole-pool write-back)
//	rank 40  shard.mu           (buffer pool shard)
//	rank 45  Log.forceMu        (group-commit leader force)
//	rank 50  Log.mu             (write-ahead log buffer + tail state)
//	rank 56  CrashDevice.mu     (test crash model; held across inner I/O)
//	rank 57  CrashTrace.mu      (crash recording)
//	rank 60  Volume.mu          (disk volume image)
//	rank 70  Volume.accMu       (disk access-time accounting)
//	rank 72  FileVolume.accMu   (file backend accounting)
//
// The table is ssa.LockRanks.  Acquiring a lock whose rank is lower
// than one already held inverts the lattice; two goroutines taking the
// same pair in opposite orders deadlock under load, and such hangs
// reproduce only under the exact interleaving that the paper's §4.5
// concurrency tests rarely hit.
//
// The held set is tracked along each function's CFG (a deferred unlock
// holds to function exit), and per-function lock summaries propagate
// bottom-up over the ssa call graph:
//
//   - Acquires(f): every ranked lock f may acquire, directly or
//     through any chain of callees (static, CHA-resolved interface,
//     and cross-package calls via exported LockFact object facts),
//     each with a representative call chain for the diagnostic.
//
//   - A Lock call below a held rank is a direct inversion.  At every
//     call site the held set is checked against the callee's
//     transitive acquisitions: an acquisition ranked below a held lock
//     is an interprocedural inversion, and a re-acquisition of a held
//     singleton engine lock (Store.mu, Log.mu, ...) is a guaranteed
//     self-deadlock — Go mutexes are not reentrant.
//
//   - Every held-then-acquired pair also becomes an edge in a global
//     lock graph, merged across packages through a package fact; a
//     cycle among same-rank locks (which the rank check alone admits)
//     is reported with the full edge list.
//
// Each function literal is checked as a function of its own with an
// empty held set: a goroutine body does not run under its creator's
// locks.  Per-instance locks (catEntry.latch, shard.mu, Txn.wmu,
// deferredAlloc.mu) are exempt from the self-deadlock check: two
// instances of the same field (the source and destination latches of a
// copy, two pool shards) may legitimately nest, and summaries track
// lock identity by lattice key, not by instance.  Dynamic calls that
// resolve to nothing (func values, closures) are ignored — the
// conservative direction for a linter that must stay quiet on clean
// code.
package lockorder

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"github.com/eosdb/eos/internal/analysis/ignore"
	"github.com/eosdb/eos/internal/analysis/ssa"
)

const doc = `check that latches are acquired in the documented lattice order

Locks rank manager → lock-table → object → txn → pool-shard → wal →
disk.  Taking a lower-ranked lock while holding a higher-ranked one —
directly or anywhere down a call chain — is an inversion: the opposite
nesting exists somewhere else in the engine, and the pair deadlocks
under concurrent load.  Re-acquiring a held singleton engine lock
through any call chain self-deadlocks immediately (sync.Mutex is not
reentrant), and opposite-order nesting of same-rank locks forms a cycle
the rank lattice cannot see.  Summaries propagate across packages via
analysis facts.`

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{ssa.Analyzer, ignore.Analyzer},
	Run:       run,
	FactTypes: []analysis.Fact{new(LockFact), new(GraphFact)},
}

// lattice names the rank order in inversion diagnostics.
const lattice = "the lattice order is manager → lock-table → object → txn → pool-shard → wal → disk"

// maxChain bounds the call chain recorded per acquisition; deeper
// chains are truncated in diagnostics.
const maxChain = 8

// Acq is one transitive lock acquisition of a function.
type Acq struct {
	Key    string   // lattice key ("Store.mu")
	Rank   int      // lattice rank
	Shared bool     // RLock rather than Lock
	Via    []string // call chain below the summarized function; empty = acquired directly
	Pos    string   // "file:line" of the Lock call itself
}

// LockFact is the exported per-function summary: every ranked lock the
// function may acquire, directly or transitively.
type LockFact struct {
	Acquires []Acq
}

// AFact marks LockFact as an analysis fact.
func (*LockFact) AFact() {}

func (f *LockFact) String() string {
	keys := make([]string, len(f.Acquires))
	for i, a := range f.Acquires {
		keys[i] = a.Key
	}
	return "acquires(" + strings.Join(keys, ",") + ")"
}

// Edge is one held→acquired ordering observed somewhere in the
// program.
type Edge struct {
	From, To         string
	FromRank, ToRank int
	Fn               string   // label of the function holding From
	Via              []string // call chain when the acquisition is in a callee
	Pos              string   // "file:line" of the acquisition or call site
}

// GraphFact is the exported package-level lock graph: this package's
// edges merged with every imported package's graph, so the root
// package of a build sees the whole program's orderings.
type GraphFact struct {
	Edges []Edge
}

// AFact marks GraphFact as an analysis fact.
func (*GraphFact) AFact() {}

func (f *GraphFact) String() string { return fmt.Sprintf("lockgraph(%d edges)", len(f.Edges)) }

// singletonKeys are the lattice keys whose owner exists once per
// store: re-acquiring one of these while it is held is a guaranteed
// self-deadlock.  Per-instance locks (object latches, pool shards,
// per-transaction mutexes) may nest across instances and are excluded.
var singletonKeys = map[string]bool{
	"Store.mu":         true,
	"LockTable.mu":     true,
	"EpochManager.mu":  true,
	"Manager.mu":       true,
	"Pool.flushMu":     true,
	"Log.forceMu":      true,
	"Log.mu":           true,
	"Volume.mu":        true,
	"Volume.accMu":     true,
	"FileVolume.accMu": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	pr := pass.ResultOf[ssa.Analyzer].(*ssa.Program)
	c := &checker{pass: pass, pr: pr, ig: ignore.For(pass), summaries: make(map[*ssa.Func]*LockFact)}
	c.summarize()
	for _, f := range pr.All() {
		c.checkFunc(f)
	}
	c.exportFacts()
	c.checkCycles()
	return nil, nil
}

type checker struct {
	pass      *analysis.Pass
	pr        *ssa.Program
	ig        *ignore.Reporter
	summaries map[*ssa.Func]*LockFact
	edges     []Edge      // edges discovered in this package
	edgePos   []token.Pos // parallel: local position for reporting
	merged    *GraphFact  // this package's edges merged with imports'
}

// summarize computes Acquires bottom-up over the SCC condensation,
// iterating each component to a fixed point (the sets grow
// monotonically toward the finite lattice key set, so this
// terminates).
func (c *checker) summarize() {
	for _, scc := range c.pr.SCCs {
		for _, f := range scc {
			c.summaries[f] = &LockFact{}
		}
		for changed := true; changed; {
			changed = false
			for _, f := range scc {
				if c.updateSummary(f) {
					changed = true
				}
			}
		}
	}
}

// updateSummary recomputes f's summary from its instructions and its
// callees' current summaries, reporting whether it grew.
func (c *checker) updateSummary(f *ssa.Func) bool {
	sum := c.summaries[f]
	have := make(map[string]bool, len(sum.Acquires))
	for _, a := range sum.Acquires {
		have[a.Key] = true
	}
	grew := false
	add := func(a Acq) {
		if have[a.Key] {
			return
		}
		have[a.Key] = true
		sum.Acquires = append(sum.Acquires, a)
		grew = true
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Kind == ssa.KLock {
				add(Acq{Key: in.LockKey, Rank: in.LockRank, Shared: in.Shared,
					Pos: c.posString(in.Call.Pos())})
				continue
			}
			for _, callee := range in.Callees {
				for _, a := range c.calleeAcquires(callee) {
					via := append([]string{ssa.FuncLabel(c.pass.Pkg, callee)}, a.Via...)
					if len(via) > maxChain {
						via = via[:maxChain]
					}
					add(Acq{Key: a.Key, Rank: a.Rank, Shared: a.Shared, Via: via, Pos: a.Pos})
				}
			}
		}
	}
	return grew
}

// calleeAcquires returns the summary of a callee: the in-progress
// package-local summary, or the imported fact for a function from
// another package.
func (c *checker) calleeAcquires(callee *types.Func) []Acq {
	if f, ok := c.pr.ByObj[callee]; ok {
		return c.summaries[f].Acquires
	}
	var fact LockFact
	if c.pass.ImportObjectFact(callee, &fact) {
		return fact.Acquires
	}
	return nil
}

// held is one currently held lock during the CFG walk.
type held struct {
	key    string
	rank   int
	shared bool
	sticky bool // deferred unlock: held to function exit
}

// checkFunc walks f's CFG with the held-lock set, checking every Lock
// and call site and recording lock-graph edges.
func (c *checker) checkFunc(f *ssa.Func) {
	if f.Entry == nil {
		return
	}
	// Reported (call site, lock key) pairs, to report each once even
	// when several CHA candidates or several held locks trip it.
	reported := make(map[string]bool)
	seen := make(map[*ssa.Block]bool)
	var visit func(b *ssa.Block, stack []held)
	visit = func(b *ssa.Block, stack []held) {
		if seen[b] {
			return
		}
		seen[b] = true
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Kind {
			case ssa.KLock:
				a := Acq{Key: in.LockKey, Rank: in.LockRank, Shared: in.Shared}
				for _, h := range stack {
					if h.rank > a.Rank {
						c.ig.Report(in.Call.Pos(),
							"lock order inversion: acquiring %s (rank %d, %s) while holding %s (rank %d, %s); %s",
							a.Key, a.Rank, ssa.RankName(a.Rank), h.key, h.rank, ssa.RankName(h.rank), lattice)
						break
					}
				}
				for _, h := range stack {
					c.addEdge(h, a, f, nil, in.Call.Pos())
				}
				stack = append(stack[:len(stack):len(stack)],
					held{key: a.Key, rank: a.Rank, shared: a.Shared, sticky: in.Deferred})
			case ssa.KUnlock:
				if in.Deferred {
					for j := range stack {
						if stack[j].key == in.LockKey && !stack[j].sticky {
							stack[j].sticky = true
							break
						}
					}
					break
				}
				for j := len(stack) - 1; j >= 0; j-- {
					if stack[j].key == in.LockKey && !stack[j].sticky {
						stack = append(stack[:j:j], stack[j+1:]...)
						break
					}
				}
			default:
				if len(stack) == 0 {
					continue
				}
				for _, callee := range in.Callees {
					label := ssa.FuncLabel(c.pass.Pkg, callee)
					for _, a := range c.calleeAcquires(callee) {
						chain := append([]string{label}, a.Via...)
						for _, h := range stack {
							c.addEdge(h, a, f, chain, in.Call.Pos())
							c.checkPair(f, h, a, chain, in.Call.Pos(), reported)
						}
					}
				}
			}
		}
		for _, s := range b.Succs {
			visit(s, stack)
		}
	}
	visit(f.Entry, nil)
}

// checkPair reports an interprocedural inversion or singleton
// self-deadlock for one held lock against one transitive acquisition.
func (c *checker) checkPair(f *ssa.Func, h held, a Acq, chain []string, pos token.Pos, reported map[string]bool) {
	key := fmt.Sprintf("%d|%s|%s", pos, h.key, a.Key)
	if reported[key] {
		return
	}
	switch {
	case a.Rank < h.rank:
		reported[key] = true
		c.ig.Report(pos,
			"interprocedural lock order inversion: call chain %s acquires %s (rank %d, %s) at %s while %s holds %s (rank %d, %s); %s",
			strings.Join(chain, " → "), a.Key, a.Rank, ssa.RankName(a.Rank), a.Pos,
			f.Name, h.key, h.rank, ssa.RankName(h.rank), lattice)
	case a.Key == h.key && singletonKeys[a.Key] && !(h.shared && a.Shared):
		reported[key] = true
		c.ig.Report(pos,
			"self-deadlock: call chain %s re-acquires %s at %s while %s already holds it; engine mutexes are not reentrant",
			strings.Join(chain, " → "), a.Key, a.Pos, f.Name)
	}
}

// addEdge records one held→acquired ordering for the global lock
// graph.  Self-edges carry no ordering information and are dropped.
func (c *checker) addEdge(h held, a Acq, f *ssa.Func, via []string, pos token.Pos) {
	if h.key == a.Key {
		return
	}
	c.edges = append(c.edges, Edge{
		From: h.key, To: a.Key,
		FromRank: h.rank, ToRank: a.Rank,
		Fn:  f.Name,
		Via: via,
		Pos: c.posString(pos),
	})
	c.edgePos = append(c.edgePos, pos)
}

// exportFacts publishes each function's summary and the package's
// merged lock graph.
func (c *checker) exportFacts() {
	for f, sum := range c.summaries {
		if len(sum.Acquires) == 0 {
			continue
		}
		sort.Slice(sum.Acquires, func(i, j int) bool { return sum.Acquires[i].Key < sum.Acquires[j].Key })
		c.pass.ExportObjectFact(f.Obj, sum)
	}
	merged := &GraphFact{}
	seen := make(map[string]bool)
	addAll := func(edges []Edge) {
		for _, e := range edges {
			k := e.From + "→" + e.To + "@" + e.Pos
			if seen[k] {
				continue
			}
			seen[k] = true
			merged.Edges = append(merged.Edges, e)
		}
	}
	addAll(c.edges)
	for _, imp := range c.pass.Pkg.Imports() {
		var g GraphFact
		if c.pass.ImportPackageFact(imp, &g) {
			addAll(g.Edges)
		}
	}
	c.pass.ExportPackageFact(merged)
	c.merged = merged
}

// checkCycles looks for cycles among same-rank edges of the merged
// graph.  Rank-inverting orderings are already diagnosed pairwise; a
// same-rank cycle (wmu → deferredAlloc.mu somewhere, the reverse
// elsewhere) is the case the lattice admits silently.
func (c *checker) checkCycles() {
	adj := make(map[string][]int)
	for i, e := range c.merged.Edges {
		if e.FromRank == e.ToRank {
			adj[e.From] = append(adj[e.From], i)
		}
	}
	// For every local same-rank edge, search for a path back from its
	// target to its source through same-rank edges: a cycle.
	reportedCycle := make(map[string]bool)
	for i, e := range c.edges {
		if e.FromRank != e.ToRank {
			continue
		}
		path := c.findPath(adj, e.To, e.From, 8)
		if path == nil {
			continue
		}
		cycle := append([]Edge{e}, path...)
		keys := make([]string, len(cycle))
		legs := make([]string, len(cycle))
		for j, ce := range cycle {
			keys[j] = ce.From + "→" + ce.To
			legs[j] = fmt.Sprintf("%s → %s (%s, %s)", ce.From, ce.To, ce.Fn, ce.Pos)
		}
		// The cycle's identity is independent of its starting edge.
		sort.Strings(keys)
		if id := strings.Join(keys, ";"); !reportedCycle[id] {
			reportedCycle[id] = true
			c.ig.Report(c.edgePos[i],
				"deadlock cycle among same-rank locks: %s; two goroutines taking these in opposite orders hang",
				strings.Join(legs, "; "))
		}
	}
}

// findPath searches the same-rank edge graph for a path from src to
// dst (bounded depth), returning the edge list.
func (c *checker) findPath(adj map[string][]int, src, dst string, depth int) []Edge {
	if depth == 0 {
		return nil
	}
	for _, i := range adj[src] {
		e := c.merged.Edges[i]
		if e.To == dst {
			return []Edge{e}
		}
		if rest := c.findPath(adj, e.To, dst, depth-1); rest != nil {
			return append([]Edge{e}, rest...)
		}
	}
	return nil
}

// posString renders pos as "dir/file.go:line": the last two path
// segments identify the file and are stable across checkouts.
func (c *checker) posString(pos token.Pos) string {
	p := c.pass.Fset.Position(pos)
	parts := strings.Split(p.Filename, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return fmt.Sprintf("%s:%d", strings.Join(parts, "/"), p.Line)
}
