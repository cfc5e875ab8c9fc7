// Package pairs defines an Analyzer that enforces the engine's
// acquire/release disciplines through one table-driven pairing engine.
// Every resource class is a spec naming its acquire calls, its release
// calls, how the resource token is identified at each site, and which
// paths must release.
//
// The table covers the six disciplines the storage engine depends on:
//
//	pin      buffer.Pool.Fix/FixNew        → Unpin/Discard   (all paths)
//	latch    ranked mutex Lock/RLock       → Unlock/RUnlock  (all paths)
//	txn      eos.Store.Begin               → Commit/CommitNoForce/Abort
//	epoch    txn.EpochManager.Enter        → EpochGuard.Exit (all paths)
//	alloc    buddy Alloc/AllocUpTo         → Free            (error paths)
//	filevol  disk.Create/OpenFileVolume    → Close           (error paths)
//
// A leaked pin makes a frame permanently unevictable; a leaked latch
// deadlocks the next acquirer; an unfinished transaction holds its
// two-phase locks forever; a leaked epoch guard pins its epoch and
// blocks page reclamation for the life of the process; and pages
// allocated on a failed operation path leak from the buddy space
// unless freed before the error return.  A file volume opened on a
// failed setup path leaks its descriptor and keeps the page file
// pinned.  The epoch, alloc and filevol specs stop tracking a token at
// its first statement-level use other than the release (stored into a
// structure, handed to a callee): ownership transferred, and the new
// owner carries the release.  The alloc and filevol specs check only
// error-returning exits — on success ownership transfers to the
// caller's data structures.
//
// Function summaries are computed bottom-up over the ssa call graph and
// exported as ResFact object facts for callers in other packages:
// Releases (parameters whose resource the function releases, to a
// fixed point), Acquires (parameters whose resource it acquires and
// leaves held), and Returns (its first result carries a freshly
// acquired resource).  Every acquire site is then checked with one
// path engine (ssa.Func.Walk): a literal acquire call (Fix, Lock,
// Begin, Enter, Alloc, OpenFileVolume), and a call to a function whose
// summary acquires or returns a resource.  A diagnostic means some path
// reaches a function exit holding the resource.  A call releases when
// it is a release call on the same token or its callee's Releases
// summary covers the argument; returning the token hands it to the
// caller.  The error-check branch guarding a fallible acquire is exempt
// (a failed acquire acquires nothing), and a deferred release covers
// every exit.
//
// Context sensitivity is by propagation: an acquire whose token is
// rooted at a parameter that the function never releases is the
// function's Acquires entry, and when something in the package calls
// the function, each call site is checked against its own exits
// instead.  A function nobody calls is checked where it acquires.
//
// Each function literal is checked as a function of its own with no
// obligations on entry.  Test files are exempt: tests hold pins,
// latches, and transactions across assertions deliberately.
package pairs

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"

	"github.com/eosdb/eos/internal/analysis/eosutil"
	"github.com/eosdb/eos/internal/analysis/ignore"
	"github.com/eosdb/eos/internal/analysis/ssa"
)

const doc = `check that paired acquire/release calls balance on every path

Each resource class (buffer pins, ranked latches, transactions, epoch
guards, buddy allocations, file volumes) pairs an acquire call with a
release call.  A path from an acquire to a function exit that misses
the release leaks the resource: frames stay unevictable, latches
deadlock their next acquirer, transactions hold their locks forever,
allocations leak pages.  Helpers that acquire, release or return a
resource are summarized bottom-up over the call graph and across
packages via analysis facts, so a call to one is checked like the
acquire or release it wraps.`

// Analyzer is the pairs analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "pairs",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{ssa.Analyzer, ignore.Analyzer},
	Run:       run,
	FactTypes: []analysis.Fact{new(ResFact)},
}

// Token sources: a spec reads the resource token from a call operand —
// the receiver (keyRecv) or an argument index (0 for the first) — or
// from the variable the first result is assigned to (keyResult).
const (
	keyRecv   = -1
	keyResult = -2
)

// matcher selects method calls by package name, receiver type name
// (struct or interface), and method names.  A matcher with an empty
// typ instead selects package-level functions of pkg named in methods
// (the acquire side of constructor→Close disciplines).
type matcher struct {
	pkg, typ string
	methods  []string
}

// spec describes one acquire/release discipline.
type spec struct {
	name             string // labels the resource in diagnostics and facts
	acquire, release []matcher
	// acquireKey and releaseKey locate the resource token at each site.
	acquireKey, releaseKey int
	// mutex switches the spec to the ranked-latch kind: acquire is
	// Lock/RLock and release Unlock/RUnlock on any ssa.LockRanks field.
	mutex bool
	// errGuarded marks acquires whose last result is an error: the
	// branch testing that error right after the call acquired nothing.
	errGuarded bool
	// errorPathsOnly restricts leak reports to error-returning exits.
	errorPathsOnly bool
	// transferOnUse stops tracking a token at its first statement-level
	// use other than the release call.  Reads inside branch conditions
	// do not transfer.
	transferOnUse bool
	hint          string // appended to diagnostics
}

// specs is the engine's pairing table.
var specs = []*spec{
	{
		name:       "pin",
		acquire:    []matcher{{"buffer", "Pool", []string{"Fix", "FixNew"}}},
		release:    []matcher{{"buffer", "Pool", []string{"Unpin", "Discard"}}},
		errGuarded: true,
		hint:       "add defer Unpin after the error check",
	},
	{
		name:  "latch",
		mutex: true,
		hint:  "unlock on every path, or defer the unlock",
	},
	{
		name:       "txn",
		acquire:    []matcher{{"eos", "Store", []string{"Begin"}}},
		release:    []matcher{{"eos", "Txn", []string{"Commit", "CommitNoForce", "Abort"}}},
		acquireKey: keyResult,
		releaseKey: keyRecv,
		errGuarded: true,
		hint:       "commit or abort on every path; an unfinished transaction holds its locks forever",
	},
	{
		name:          "epoch",
		acquire:       []matcher{{"txn", "EpochManager", []string{"Enter"}}},
		release:       []matcher{{"txn", "EpochGuard", []string{"Exit"}}},
		acquireKey:    keyResult,
		releaseKey:    keyRecv,
		transferOnUse: true,
		hint:          "Exit the guard on every path (or hand it off); a leaked pin blocks epoch reclamation forever",
	},
	{
		name: "alloc",
		acquire: []matcher{
			{"buddy", "Manager", []string{"Alloc", "AllocUpTo"}},
			{"lob", "Allocator", []string{"Alloc", "AllocUpTo"}},
		},
		release: []matcher{
			{"buddy", "Manager", []string{"Free"}},
			{"lob", "Allocator", []string{"Free"}},
		},
		acquireKey:     keyResult,
		errGuarded:     true,
		errorPathsOnly: true,
		transferOnUse:  true,
		hint:           "free the pages (or hand them off) before returning the error",
	},
	{
		name:           "filevol",
		acquire:        []matcher{{"disk", "", []string{"CreateFileVolume", "OpenFileVolume"}}},
		release:        []matcher{{"disk", "FileVolume", []string{"Close"}}},
		acquireKey:     keyResult,
		releaseKey:     keyRecv,
		errGuarded:     true,
		errorPathsOnly: true,
		transferOnUse:  true,
		hint:           "close the volume (or hand it off) before returning the error; a leaked descriptor pins the page file",
	},
}

func specNamed(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// ResFact is the exported per-function resource summary.
type ResFact struct {
	// Releases lists parameters whose resource the function releases.
	Releases []Param
	// Acquires lists parameters whose resource the function acquires
	// and leaves held when it returns.
	Acquires []Param
	// Returns lists resources the function's first result carries,
	// freshly acquired.
	Returns []Result
}

// Param is one summarized parameter: the spec name, the parameter
// index (-1 for the receiver), a token suffix for latches (".mu" when
// the function locks param.mu), and for Acquires the call chain below
// the function that performs the acquisition.
type Param struct {
	Spec   string
	Param  int
	Suffix string
	Chain  []string
}

// Result marks the function's first result as carrying a freshly
// acquired resource of Spec, acquired through Chain.
type Result struct {
	Spec  string
	Chain []string
}

// AFact marks ResFact as an analysis fact.
func (*ResFact) AFact() {}

func (f *ResFact) String() string {
	var parts []string
	for _, p := range f.Releases {
		parts = append(parts, fmt.Sprintf("rel:%s:%d%s", p.Spec, p.Param, p.Suffix))
	}
	for _, p := range f.Acquires {
		parts = append(parts, fmt.Sprintf("acq:%s:%d%s", p.Spec, p.Param, p.Suffix))
	}
	for _, r := range f.Returns {
		parts = append(parts, "ret:"+r.Spec)
	}
	return "res(" + strings.Join(parts, ",") + ")"
}

func (f *ResFact) empty() bool {
	return len(f.Releases)+len(f.Acquires)+len(f.Returns) == 0
}

// maxChain bounds recorded acquisition chains.
const maxChain = 8

func run(pass *analysis.Pass) (interface{}, error) {
	pr := pass.ResultOf[ssa.Analyzer].(*ssa.Program)
	c := &checker{
		pass:   pass,
		pr:     pr,
		ig:     ignore.For(pass),
		sums:   make(map[*ssa.Func]*ResFact),
		called: make(map[*ssa.Func]bool),
	}
	for _, f := range pr.Funcs {
		c.sums[f] = new(ResFact)
	}
	// Releases converge first: the Acquires and Returns summaries ask
	// whether a body releases what it acquires.
	c.fixpoint(c.updateReleases)
	c.fixpoint(c.updateAcquires)
	for f, sum := range c.sums {
		if !sum.empty() {
			pass.ExportObjectFact(f.Obj, sum)
		}
	}

	var funcs []*ssa.Func
	for _, f := range pr.All() {
		if !strings.HasSuffix(pass.Fset.Position(f.Body.Pos()).Filename, "_test.go") {
			funcs = append(funcs, f)
		}
	}
	for _, f := range funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				for _, callee := range b.Instrs[i].Callees {
					if g := pr.ByObj[callee]; g != nil && g != f {
						c.called[g] = true
					}
				}
			}
		}
	}
	for _, f := range funcs {
		c.checkFunc(f)
	}
	return nil, nil
}

type checker struct {
	pass   *analysis.Pass
	pr     *ssa.Program
	ig     *ignore.Reporter
	sums   map[*ssa.Func]*ResFact
	called map[*ssa.Func]bool // called from another non-test function of the package
}

// fixpoint runs update over each SCC, bottom-up, until nothing
// changes.  Summary entries only ever accumulate, so it converges.
func (c *checker) fixpoint(update func(*ssa.Func) bool) {
	for _, scc := range c.pr.SCCs {
		for changed := true; changed; {
			changed = false
			for _, f := range scc {
				if update(f) {
					changed = true
				}
			}
		}
	}
}

// factFor returns the summary of a resolved callee: the in-package
// summary (possibly still converging) or the imported cross-package
// fact, or nil.
func (c *checker) factFor(fn *types.Func) *ResFact {
	if fn == nil {
		return nil
	}
	if f, ok := c.pr.ByObj[fn]; ok {
		return c.sums[f]
	}
	var imported ResFact
	if c.pass.ImportObjectFact(fn, &imported) {
		return &imported
	}
	return nil
}

// relKey identifies one released resource within a body.
type relKey struct{ spec, token string }

// eachRelease calls fn for every resource call releases: a release
// call of any spec, or a callee whose Releases summary covers an
// argument.
func (c *checker) eachRelease(call *ast.CallExpr, fn func(relKey)) {
	for _, sp := range specs {
		if tok, ok := c.releaseToken(sp, call); ok {
			fn(relKey{sp.name, tok})
		}
	}
	if rf := c.factFor(eosutil.Callee(c.pass.TypesInfo, call)); rf != nil {
		for _, p := range rf.Releases {
			if tok, ok := operand(call, p.Param); ok {
				fn(relKey{p.Spec, tok + p.Suffix})
			}
		}
	}
}

// releasedSet collects every resource released anywhere in f's body,
// deferred releases included; releases inside a non-deferred literal
// do not count (the literal may never run here).
func (c *checker) releasedSet(f *ssa.Func) map[relKey]bool {
	out := make(map[relKey]bool)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if call := b.Instrs[i].Call; call != nil {
				c.eachRelease(call, func(k relKey) { out[k] = true })
			}
		}
	}
	return out
}

func (c *checker) updateReleases(f *ssa.Func) bool {
	sum := c.sums[f]
	params := paramIndex(f.Decl)
	changed := false
	for rk := range c.releasedSet(f) {
		base, suffix := splitToken(specNamed(rk.spec), rk.token)
		i, isParam := params[base]
		if !isParam || hasParam(sum.Releases, rk.spec, i, suffix) {
			continue
		}
		sum.Releases = append(sum.Releases, Param{Spec: rk.spec, Param: i, Suffix: suffix})
		changed = true
	}
	return changed
}

// updateAcquires derives the Acquires and Returns summaries.  An
// acquire whose token is released somewhere in the same body is
// balanced and contributes nothing; a parameter-rooted acquire makes
// the parameter held-on-return; a result-keyed acquire whose result is
// returned makes the function a producer.
func (c *checker) updateAcquires(f *ssa.Func) bool {
	sum := c.sums[f]
	params := paramIndex(f.Decl)
	released := c.releasedSet(f)
	changed := false
	for _, s := range c.sites(f) {
		if s.result {
			if c.produces(f, s, released) && !hasResult(sum.Returns, s.spec.name) {
				sum.Returns = append(sum.Returns, Result{Spec: s.spec.name, Chain: s.chain})
				changed = true
			}
			continue
		}
		if released[relKey{s.spec.name, s.token}] {
			continue
		}
		base, suffix := splitToken(s.spec, s.token)
		i, isParam := params[base]
		if !isParam || hasParam(sum.Acquires, s.spec.name, i, suffix) {
			continue
		}
		sum.Acquires = append(sum.Acquires, Param{Spec: s.spec.name, Param: i, Suffix: suffix, Chain: s.chain})
		changed = true
	}
	return changed
}

func hasParam(ps []Param, spec string, i int, suffix string) bool {
	for _, p := range ps {
		if p.Spec == spec && p.Param == i && p.Suffix == suffix {
			return true
		}
	}
	return false
}

func hasResult(rs []Result, spec string) bool {
	for _, r := range rs {
		if r.Spec == spec {
			return true
		}
	}
	return false
}

// produces reports whether result-keyed site s hands its resource to
// f's caller: the call is returned directly, or its result variable is
// returned without a release in the body.  For transferOnUse specs a
// use before the return hands the resource off instead.
func (c *checker) produces(f *ssa.Func, s *site, released map[relKey]bool) bool {
	if s.tokenObj == nil {
		return returnsCall(f.Body, s.call)
	}
	if released[relKey{s.spec.name, s.token}] ||
		(s.spec.transferOnUse && c.usedOutsideReturn(f.Body, s)) {
		return false
	}
	returned := false
	inspectBody(f.Body, func(n ast.Node) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				if id, ok := res.(*ast.Ident); ok && c.pass.TypesInfo.ObjectOf(id) == s.tokenObj {
					returned = true
				}
			}
		}
	})
	return returned
}

// site is one acquire under check: a literal acquire call, or a call
// whose callee's summary acquires (chain non-nil).
type site struct {
	spec     *spec
	call     *ast.CallExpr
	method   string       // acquiring call, for diagnostics
	token    string       // expression text identifying the resource; "" for an unbound result
	tokenObj types.Object // variable holding a result-keyed resource
	errVar   types.Object // error variable guarding a fallible acquire
	// guardIf is the `if errVar != nil` statement that actually guards
	// this acquire: the first test of errVar after the call and before
	// errVar is overwritten.  Later tests of a reused err variable
	// belong to other calls and exempt nothing.
	guardIf *ast.IfStmt
	chain   []string // call chain of a derived site; nil for a literal acquire
	result  bool     // the call's first result carries the resource
}

// sites collects f's acquire sites.  Deferred acquires are ignored:
// they run at exit, and nothing downstream can release them.
func (c *checker) sites(f *ssa.Func) []*site {
	var out []*site
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Call == nil || in.Deferred {
				continue
			}
			for _, sp := range specs {
				if m, tok, ok := c.acquireSite(sp, in.Call); ok {
					out = append(out, &site{spec: sp, call: in.Call, method: m, token: tok,
						result: sp.acquireKey == keyResult})
				}
			}
			fn := eosutil.Callee(c.pass.TypesInfo, in.Call)
			rf := c.factFor(fn)
			if rf == nil {
				continue
			}
			label := ssa.FuncLabel(c.pass.Pkg, fn)
			for _, p := range rf.Acquires {
				if tok, ok := operand(in.Call, p.Param); ok {
					out = append(out, &site{spec: specNamed(p.Spec), call: in.Call, method: label,
						token: tok + p.Suffix, chain: chainVia(label, p.Chain)})
				}
			}
			for _, r := range rf.Returns {
				out = append(out, &site{spec: specNamed(r.Spec), call: in.Call, method: label,
					chain: chainVia(label, r.Chain), result: true})
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	// Bind each site to its assignment: the error variable guarding a
	// fallible acquire, and the variable of a result-keyed one.
	inspectBody(f.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		for _, s := range out {
			if as.Rhs[0] != s.call {
				continue
			}
			// The error is the last result — which may be the only one.
			if id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && s.spec.errGuarded && id.Name != "_" {
				if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil && eosutil.IsErrorType(obj.Type()) {
					s.errVar = obj
				}
			}
			if id, ok := as.Lhs[0].(*ast.Ident); ok && s.result && id.Name != "_" {
				if obj := c.pass.TypesInfo.ObjectOf(id); obj != s.errVar {
					s.token, s.tokenObj = id.Name, obj
				}
			}
		}
	})
	return out
}

func chainVia(label string, below []string) []string {
	chain := append([]string{label}, below...)
	if len(chain) > maxChain {
		chain = chain[:maxChain]
	}
	return chain
}

// checkFunc checks every acquire site of f.
func (c *checker) checkFunc(f *ssa.Func) {
	for _, s := range c.sites(f) {
		if s.token == "" {
			// An unbound literal result has nothing to track; a
			// summarized producer's result thrown away is a leak.
			if s.chain != nil && !returnsCall(f.Body, s.call) {
				c.ig.Report(s.call.Pos(),
					"interprocedural %s leak: %s returns an acquired %s that is discarded (%s)",
					s.spec.name, strings.Join(s.chain, " → "), s.spec.name, s.spec.hint)
			}
			continue
		}
		if c.handsOff(f, s) {
			continue
		}
		c.attachGuard(f.Body, s)
		if c.deferredReleaseBefore(f.Body, s) || !c.leaks(f, s) {
			continue
		}
		switch {
		case s.chain != nil && s.result:
			c.ig.Report(s.call.Pos(),
				"interprocedural %s leak: %q acquired by call chain %s can reach a function exit without release (%s)",
				s.spec.name, s.token, strings.Join(s.chain, " → "), s.spec.hint)
		case s.chain != nil:
			c.ig.Report(s.call.Pos(),
				"interprocedural %s leak: call chain %s acquires %s and no subsequent path releases it before exit (%s)",
				s.spec.name, strings.Join(s.chain, " → "), s.token, s.spec.hint)
		case s.spec.errorPathsOnly:
			c.ig.Report(s.call.Pos(),
				"%s leak: the resource from %s(...) in %q is not released on an error-return path (%s)",
				s.spec.name, s.method, s.token, s.spec.hint)
		default:
			c.ig.Report(s.call.Pos(),
				"%s leak: %s(%s) can reach a function exit without %s(%s) (%s)",
				s.spec.name, s.method, s.token, releaseNames(s.spec), s.token, s.spec.hint)
		}
	}
}

// handsOff reports whether s's obligation belongs to f's callers: its
// token is rooted at a parameter that f never releases, and something
// in the package calls f.  That is f's Acquires summary entry, checked
// at each call site instead.
func (c *checker) handsOff(f *ssa.Func, s *site) bool {
	base, _ := splitToken(s.spec, s.token)
	if _, isParam := paramIndex(f.Decl)[base]; !isParam || !c.called[f] {
		return false
	}
	return !c.releasedSet(f)[relKey{s.spec.name, s.token}]
}

// leaks reports whether some path from s's acquire reaches a function
// exit — an error-returning one for errorPathsOnly specs — without
// settling the resource.
func (c *checker) leaks(f *ssa.Func, s *site) bool {
	start, at := f.Locate(s.call)
	if start == nil {
		return false // CFG elided the call (dead code)
	}
	return f.Walk(start, at,
		func(n ast.Node) bool { return c.settles(n, s) },
		func(b *ssa.Block) bool { return !c.isErrGuard(b, s) },
		func(b *ssa.Block) bool {
			if b.Raw.Kind == cfg.KindUnreachable {
				return false
			}
			return !s.spec.errorPathsOnly || c.isErrorReturn(b)
		})
}

// deferredReleaseBefore reports whether body registers a deferred
// release of s's resource lexically before the acquire call (and not
// inside a nested function literal).  Such a defer runs at every
// function exit but sits on no CFG path from the acquire.
func (c *checker) deferredReleaseBefore(body *ast.BlockStmt, s *site) bool {
	covered := false
	inspectBody(body, func(n ast.Node) {
		if d, ok := n.(*ast.DeferStmt); ok && d.Pos() < s.call.Pos() && c.settles(d, s) {
			covered = true
		}
	})
	return covered
}

func releaseNames(sp *spec) string {
	if sp.mutex {
		return "Unlock"
	}
	seen := make(map[string]bool)
	var names []string
	for _, m := range sp.release {
		for _, n := range m.methods {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return strings.Join(names, "/")
}

// attachGuard locates the `if errVar != nil` statement that guards s:
// the first test of s.errVar after the acquire call and before the
// variable is written again.
func (c *checker) attachGuard(body *ast.BlockStmt, s *site) {
	if s.errVar == nil {
		return
	}
	// First write to errVar strictly after the acquire (the acquire's
	// own assignment contains the call and is skipped by position).
	var nextWrite token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() <= s.call.End() {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && c.pass.TypesInfo.ObjectOf(id) == s.errVar {
				if nextWrite == token.NoPos || as.Pos() < nextWrite {
					nextWrite = as.Pos()
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !c.condTestsVar(ifs.Cond, s.errVar) {
			return true
		}
		pos := ifs.Cond.Pos()
		if pos <= s.call.End() || (nextWrite != token.NoPos && pos >= nextWrite) {
			return true
		}
		if s.guardIf == nil || pos < s.guardIf.Cond.Pos() {
			s.guardIf = ifs
		}
		return true
	})
}

// condTestsVar reports whether cond is a binary comparison mentioning
// obj.
func (c *checker) condTestsVar(cond ast.Expr, obj types.Object) bool {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	for _, e := range []ast.Expr{bin.X, bin.Y} {
		if id, ok := e.(*ast.Ident); ok && c.pass.TypesInfo.ObjectOf(id) == obj {
			return true
		}
	}
	return false
}

// isErrGuard reports whether b is the then-branch of the `if err != nil`
// statement guarding s; without a located guard, any test of the error
// variable counts.
func (c *checker) isErrGuard(b *ssa.Block, s *site) bool {
	if s.errVar == nil || b.Raw.Kind != cfg.KindIfThen {
		return false
	}
	ifStmt, ok := b.Raw.Stmt.(*ast.IfStmt)
	if !ok {
		return false
	}
	if s.guardIf != nil {
		return ifStmt == s.guardIf
	}
	return c.condTestsVar(ifStmt.Cond, s.errVar)
}

// isErrorReturn reports whether exit block b returns a non-nil error
// expression.
func (c *checker) isErrorReturn(b *ssa.Block) bool {
	for _, n := range b.Raw.Nodes {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			continue
		}
		for _, res := range ret.Results {
			if id, ok := res.(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			if tv, ok := c.pass.TypesInfo.Types[res]; ok && eosutil.IsErrorType(tv.Type) {
				return true
			}
		}
	}
	return false
}

// settles reports whether CFG node n ends the tracking of s's resource
// on its path: a release (direct, deferred, or through a releaser
// summary), returning the token to the caller, or — for transferOnUse
// specs — any other statement-level use of the token.  A read inside a
// branch condition, which appears in the CFG as a bare expression
// node, keeps the resource tracked.
func (c *checker) settles(n ast.Node, s *site) bool {
	if d, ok := n.(*ast.DeferStmt); ok {
		if c.callReleases(d.Call, s) {
			return true
		}
		lit, ok := d.Call.Fun.(*ast.FuncLit)
		return ok && c.releasesIn(lit.Body, s, true)
	}
	if c.releasesIn(n, s, false) {
		return true
	}
	_, isRet := n.(*ast.ReturnStmt)
	_, isStmt := n.(ast.Stmt)
	return s.tokenObj != nil && isStmt && (isRet || s.spec.transferOnUse) && c.usesToken(n, s)
}

// releasesIn reports whether a call under root releases s's resource;
// calls inside function literals count only with lits set.
func (c *checker) releasesIn(root ast.Node, s *site, lits bool) bool {
	released := false
	ast.Inspect(root, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); (ok && !lits) || released {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			released = c.callReleases(call, s)
		}
		return !released
	})
	return released
}

func (c *checker) callReleases(call *ast.CallExpr, s *site) bool {
	found := false
	c.eachRelease(call, func(k relKey) {
		found = found || (k.spec == s.spec.name && k.token == s.token)
	})
	return found
}

// usesToken reports whether n mentions s's token variable outside the
// acquiring call's own assignment.
func (c *checker) usesToken(n ast.Node, s *site) bool {
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && c.pass.TypesInfo.ObjectOf(id) == s.tokenObj &&
			(id.Pos() > s.call.End() || id.Pos() < s.call.Pos()) {
			used = true
		}
		return !used
	})
	return used
}

// usedOutsideReturn reports whether s's token variable is used after
// the acquire call anywhere but a return statement.
func (c *checker) usedOutsideReturn(body *ast.BlockStmt, s *site) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			return false
		case *ast.Ident:
			used = used || (n.Pos() > s.call.End() && c.pass.TypesInfo.ObjectOf(n) == s.tokenObj)
		}
		return !used
	})
	return used
}

// returnsCall reports whether call appears directly as a return result
// (`return openTxn(s)`).
func returnsCall(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	inspectBody(body, func(n ast.Node) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				found = found || res == call
			}
		}
	})
	return found
}

// inspectBody calls fn for every node of body outside nested function
// literals.
func inspectBody(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// paramIndex maps a declaration's parameter (and receiver) names to
// their summary indices: receiver -1, parameters 0..n-1.  It returns
// nil for a function literal.
func paramIndex(decl *ast.FuncDecl) map[string]int {
	if decl == nil {
		return nil
	}
	params := make(map[string]int)
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		for _, nm := range decl.Recv.List[0].Names {
			params[nm.Name] = keyRecv
		}
	}
	idx := 0
	for _, field := range decl.Type.Params.List {
		for _, nm := range field.Names {
			params[nm.Name] = idx
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return params
}

// splitToken splits a latch token ("sh.mu") into its base and field
// suffix; other tokens pass through whole.
func splitToken(sp *spec, token string) (base, suffix string) {
	if sp.mutex {
		if i := strings.LastIndex(token, "."); i > 0 {
			return token[:i], token[i:]
		}
	}
	return token, ""
}

// operand returns the expression text of call's receiver (i ==
// keyRecv) or argument i.
func operand(call *ast.CallExpr, i int) (string, bool) {
	if i == keyRecv {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		return types.ExprString(sel.X), true
	}
	if i < 0 || i >= len(call.Args) {
		return "", false
	}
	return types.ExprString(call.Args[i]), true
}

// acquireSite reports whether call is one of sp's acquire calls, with
// the acquiring method and — except for result-keyed specs, whose
// token is bound from the enclosing assignment — the token.
func (c *checker) acquireSite(sp *spec, call *ast.CallExpr) (method, token string, ok bool) {
	if sp.mutex {
		_, m, tok, isLock := c.pr.LockEvent(call)
		return m, tok, isLock && (m == "Lock" || m == "RLock")
	}
	m, matched := c.matchAny(sp.acquire, call)
	if !matched || sp.acquireKey == keyResult {
		return m, "", matched
	}
	tok, ok := operand(call, sp.acquireKey)
	return m, tok, ok
}

// releaseToken reports whether call is one of sp's release calls, and
// the token it releases.
func (c *checker) releaseToken(sp *spec, call *ast.CallExpr) (string, bool) {
	if sp.mutex {
		_, m, tok, ok := c.pr.LockEvent(call)
		return tok, ok && (m == "Unlock" || m == "RUnlock")
	}
	if _, ok := c.matchAny(sp.release, call); !ok {
		return "", false
	}
	return operand(call, sp.releaseKey)
}

// matchAny matches call against a matcher list, returning the method.
func (c *checker) matchAny(ms []matcher, call *ast.CallExpr) (string, bool) {
	for _, m := range ms {
		var name string
		var ok bool
		if m.typ == "" {
			name, ok = eosutil.IsPkgNameCall(c.pass.TypesInfo, call, m.pkg, m.methods...)
		} else {
			name, ok = eosutil.IsMethodCallAny(c.pass.TypesInfo, call, m.pkg, m.typ, m.methods...)
		}
		if ok {
			return name, true
		}
	}
	return "", false
}
