package ssa

// The forward path engine shared by the resource passes: pairs asks
// whether some path from an acquire reaches a function exit without a
// release, useafterunpin whether some path from a release reaches a
// use of the released page image.  Both walk the go/cfg nodes of each
// block in order, cutting a path at the first node that settles it.

import "go/ast"

// Locate returns the live block holding target (as a CFG node or
// inside one) and the node's index, or nil when the CFG elided target
// as dead code.
func (f *Func) Locate(target ast.Node) (*Block, int) {
	for _, b := range f.Blocks {
		if !b.Raw.Live {
			continue
		}
		for i, n := range b.Raw.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				found = found || m == target
				return !found
			})
			if found {
				return b, i
			}
		}
	}
	return nil, 0
}

// Walk explores the paths leaving node at of block start, entering
// each block at most once.  step sees every node in path order and
// ends the path by returning true.  enter, when non-nil, prunes a block
// before it is walked by returning false.  exit sees each block without
// successors that a path reaches; Walk returns true as soon as exit
// does (a nil exit never does).  A path that loops back into start
// walks its nodes up to and including at, then ends: the rest of start
// was walked already.
func (f *Func) Walk(start *Block, at int, step func(ast.Node) bool, enter, exit func(*Block) bool) bool {
	seen := map[*Block]bool{start: true}
	looped := false
	var walk func(b *Block, nodes []ast.Node) bool
	walk = func(b *Block, nodes []ast.Node) bool {
		for _, n := range nodes {
			if step(n) {
				return false
			}
		}
		if len(b.Succs) == 0 {
			return exit != nil && exit(b)
		}
		for _, s := range b.Succs {
			switch {
			case s == start:
				if !looped {
					looped = true
					for _, n := range s.Raw.Nodes[:at+1] {
						if step(n) {
							break
						}
					}
				}
			case !seen[s]:
				seen[s] = true
				if (enter == nil || enter(s)) && walk(s, s.Raw.Nodes) {
					return true
				}
			}
		}
		return false
	}
	return walk(start, start.Raw.Nodes[at+1:])
}
