// Package useafterunpin defines an Analyzer that reports uses of a
// pinned page image after the pin is released.
//
// buffer.Pool.Fix and FixNew return the frame's byte slice directly —
// a pointer into the buffer pool, valid only while the frame's pin
// count holds it in memory.  After Unpin or Discard the frame may be
// evicted, reused for another page, or concurrently rewritten by the
// next fixer; reading through the old slice returns another page's
// bytes and writing through it corrupts an unrelated page.  This is
// the static form of the torn-page class of bugs: the dynamic variant
// (write-back racing a mutator) was fixed by hand once, and this
// analyzer keeps the pattern out of the tree.
//
// The analyzer tracks the slice variable assigned from each Fix/FixNew
// call through the function's control-flow graph, walked with the ssa
// path engine the pairs analyzer uses.  From every non-deferred
// Unpin/Discard of the same page expression, any reachable use of the
// variable is reported: a read or write, a return, or a capture by a
// function literal (a goroutine or closure may run after the pin is
// gone even when it is created before).  Each function literal is
// checked as a function of its own.
// Reassigning the variable — including re-fixing the page into it —
// ends tracking on that path.
//
// The analysis is lexical about the page identity (the same expression
// text must be passed to Fix and Unpin, as in the engine's code) and
// intra-procedural: a helper that unpins for you hides the release
// and is not treated as one.  Deferred releases run at function exit,
// so body uses after a defer statement are fine.
package useafterunpin

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"github.com/eosdb/eos/internal/analysis/eosutil"
	"github.com/eosdb/eos/internal/analysis/ignore"
	"github.com/eosdb/eos/internal/analysis/ssa"
)

const doc = `report uses of a pinned page image after Unpin/Discard

Fix and FixNew return a slice aliasing the buffer frame; once the page
is unpinned the frame may be evicted or handed to another page, so any
later read, write, return, or closure capture of the slice touches
memory the pool no longer guarantees.  Tracking is per control-flow
path: a use is reported only when a release reaches it.`

// Analyzer is the useafterunpin analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "useafterunpin",
	Doc:      doc,
	Requires: []*analysis.Analyzer{ssa.Analyzer, ignore.Analyzer},
	Run:      run,
}

// pinSite is one Fix/FixNew call whose slice result is tracked.
type pinSite struct {
	call   *ast.CallExpr
	method string
	img    types.Object // the slice variable
	page   string       // expression string of the page argument
}

func run(pass *analysis.Pass) (interface{}, error) {
	pr := pass.ResultOf[ssa.Analyzer].(*ssa.Program)
	ig := ignore.For(pass)
	for _, f := range pr.All() {
		if strings.HasSuffix(pass.Fset.Position(f.Body.Pos()).Filename, "_test.go") {
			continue
		}
		for _, s := range collectSites(pass, f.Body) {
			checkSite(pass, ig, f, s)
		}
	}
	return nil, nil
}

// collectSites finds the Fix/FixNew assignments lexically inside body
// (not inside nested function literals) whose slice result is named.
func collectSites(pass *analysis.Pass, body *ast.BlockStmt) []*pinSite {
	var sites []*pinSite
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) < 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 1 {
			return true
		}
		method, ok := eosutil.IsMethodCall(pass.TypesInfo, call, "buffer", "Pool", "Fix", "FixNew")
		if !ok {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return true
		}
		sites = append(sites, &pinSite{
			call:   call,
			method: method,
			img:    obj,
			page:   types.ExprString(call.Args[0]),
		})
		return true
	})
	return sites
}

// checkSite walks forward, with the ssa path engine, from every
// release of s's page and reports the first reachable use of the image
// variable on each path.
func checkSite(pass *analysis.Pass, ig *ignore.Reporter, f *ssa.Func, s *pinSite) {
	reported := make(map[token.Pos]bool)
	for _, b := range f.Blocks {
		if !b.Raw.Live {
			continue
		}
		for i, n := range b.Raw.Nodes {
			rel, ok := releaseOf(pass, n, s)
			if !ok {
				continue
			}
			f.Walk(b, i, func(n ast.Node) bool {
				use, kind := useIn(pass, n, s)
				if use != nil && !reported[use.Pos()] {
					reported[use.Pos()] = true
					ig.Report(use.Pos(),
						"page image %q %s after %s(%s); the unpinned frame may be evicted or rewritten",
						s.img.Name(), kind, rel, s.page)
				}
				return use != nil || kind == killed
			}, nil, nil)
		}
	}
}

// releaseOf reports whether CFG node n non-deferredly releases s's
// page, returning the release method name.
func releaseOf(pass *analysis.Pass, n ast.Node, s *pinSite) (string, bool) {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return "", false
	}
	var rel string
	ast.Inspect(n, func(m ast.Node) bool {
		if rel != "" {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok || len(call.Args) < 1 {
			return true
		}
		method, ok := eosutil.IsMethodCall(pass.TypesInfo, call, "buffer", "Pool", "Unpin", "Discard")
		if ok && types.ExprString(call.Args[0]) == s.page {
			rel = method
			return false
		}
		return true
	})
	return rel, rel != ""
}

const (
	used     = "used"
	returned = "returned"
	captured = "captured by a function literal"
	killed   = "\x00killed"
)

// useIn looks for a use of s.img inside CFG node n.  It returns the
// using identifier and how it is used, or kind == killed when n
// reassigns the variable (ending the image's association with the
// frame).
func useIn(pass *analysis.Pass, n ast.Node, s *pinSite) (*ast.Ident, string) {
	// Reassignment check first: a plain `img = ...` or a fresh
	// `img, err := pool.Fix(...)` ends tracking, but any use of img
	// elsewhere in the same statement (RHS, or an index expression on
	// the LHS) is still a use.
	reassigned := false
	var use *ast.Ident
	kind := used
	mark := func(root ast.Node, k string) {
		ast.Inspect(root, func(m ast.Node) bool {
			if use != nil {
				return false
			}
			if lit, ok := m.(*ast.FuncLit); ok {
				// A capture: the literal may outlive the pin.
				ast.Inspect(lit.Body, func(in ast.Node) bool {
					if use != nil {
						return false
					}
					if id, ok := in.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == s.img {
						use, kind = id, captured
					}
					return use == nil
				})
				return false
			}
			if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == s.img {
				use, kind = id, k
			}
			return use == nil
		})
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if pass.TypesInfo.ObjectOf(id) == s.img {
					reassigned = true
				}
				continue
			}
			mark(lhs, used) // img[0] = x is a write through the image
		}
		for _, rhs := range n.Rhs {
			mark(rhs, used)
		}
	case *ast.ReturnStmt:
		mark(n, returned)
	default:
		mark(n, used)
	}
	if use != nil {
		return use, kind
	}
	if reassigned {
		return nil, killed
	}
	return nil, ""
}
