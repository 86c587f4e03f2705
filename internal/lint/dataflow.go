package lint

import (
	"go/ast"
	"go/types"
)

// This file is the framework's dataflow layer: a small forward
// may-analysis engine over the CFG in cfg.go. Facts are sets of
// types.Object (the variables an analyzer tracks — detpath's slices tainted
// with map-iteration order); the join is set union, so a fact holds at a
// point if it holds on ANY path reaching it. That is the right polarity for
// "some path uses the slice before sorting it".
//
// Transfer functions work at node granularity: the engine feeds every node
// of a block, in execution order, to the analyzer's `apply` mutator
// (gen/kill). After the fixpoint it makes one reporting sweep, feeding each
// node together with the facts live immediately before it to `visit`.

// objSet is a mutable set of tracked variables.
type objSet map[types.Object]bool

func (s objSet) clone() objSet {
	out := make(objSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// union adds src into s, reporting whether s changed.
func (s objSet) union(src objSet) bool {
	changed := false
	for k := range src {
		if !s[k] {
			s[k] = true
			changed = true
		}
	}
	return changed
}

// forwardFlow runs `apply` to fixpoint over the CFG and returns the fact
// set live at entry to each block (the Exit block's in-set is the facts
// that can reach a function exit). When `visit` is non-nil, a final sweep
// calls it for every node with the facts live immediately before that node
// (apply runs after visit, so visit sees the pre-state).
func forwardFlow(c *CFG, apply func(n ast.Node, facts objSet), visit func(n ast.Node, facts objSet)) map[*Block]objSet {
	in := make(map[*Block]objSet, len(c.Blocks))
	for _, b := range c.Blocks {
		in[b] = objSet{}
	}
	transfer := func(b *Block) objSet {
		facts := in[b].clone()
		for _, n := range b.Nodes {
			apply(n, facts)
		}
		return facts
	}
	// Chaotic iteration to fixpoint. Function bodies are small; simplicity
	// beats a priority worklist here.
	for changed := true; changed; {
		changed = false
		for _, b := range c.Blocks {
			out := transfer(b)
			for _, s := range b.Succs {
				if in[s].union(out) {
					changed = true
				}
			}
		}
	}
	if visit != nil {
		for _, b := range c.Blocks {
			facts := in[b].clone()
			for _, n := range b.Nodes {
				visit(n, facts)
				apply(n, facts)
			}
		}
	}
	return in
}

// objOf resolves an identifier to its object, through either a use or a
// definition.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// identFor unwraps an expression to a plain identifier (through parens),
// or nil.
func identFor(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// mentionsObj reports whether the subtree references the object.
func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if id, ok := x.(*ast.Ident); ok && objOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}
