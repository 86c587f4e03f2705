package lint

import (
	"go/ast"
	"go/token"
)

// This file is the gen-2 framework's control-flow layer: a per-function CFG
// built directly from the AST, statement-granular, with no x/tools
// dependency. Analyzers that reason about paths (spanend, detpath) or
// reachability (goroleak) build one CFG per function and run the forward
// dataflow engine in dataflow.go over it.
//
// The graph is deliberately simple:
//
//   - a Block is a maximal straight-line run of statements/expressions in
//     execution order; Nodes holds them (conditions of if/for/switch appear
//     as expression nodes so transfer functions see their evaluation);
//   - Blocks[0] is the entry; Exit is one synthetic, empty exit block that
//     every return, panic, and fall-off-the-end edge targets;
//   - `defer` statements are recorded in Defers (in registration order) as
//     well as appearing in their block, because deferred calls execute at
//     every later exit — path analyses treat a deferred call as covering
//     all returns downstream of its registration;
//   - nested function literals are NOT flowed into: their bodies run at
//     some other time. Analyzers build separate CFGs for literals they care
//     about.
//
// goto/labeled break/continue are resolved with a patch list, so forward
// gotos work. Unreachable code after a terminating statement lands in a
// fresh predecessor-less block — it stays visible to analyzers but carries
// no facts.

// Block is one straight-line run of nodes with its control-flow successors.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block // Blocks[0] is the entry
	Exit   *Block   // synthetic exit; empty Nodes
	// Defers lists every defer statement in the body (outside nested
	// function literals), in registration order.
	Defers []*ast.DeferStmt
	// blockOf maps each recorded node to its containing block.
	blockOf map[ast.Node]*Block
}

// BlockOf returns the block holding a node recorded in the CFG, or nil.
func (c *CFG) BlockOf(n ast.Node) *Block { return c.blockOf[n] }

// ReachableFrom returns the set of blocks reachable from b, including b
// itself.
func (c *CFG) ReachableFrom(b *Block) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(x *Block) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		for _, s := range x.Succs {
			walk(s)
		}
	}
	walk(b)
	return seen
}

// preds computes the predecessor lists of every block.
func (c *CFG) preds() map[*Block][]*Block {
	p := map[*Block][]*Block{}
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			p[s] = append(p[s], b)
		}
	}
	return p
}

// buildCFG constructs the CFG of one function body.
func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg: &CFG{blockOf: map[ast.Node]*Block{}},
	}
	b.cfg.Exit = &Block{Index: -1}
	b.cur = b.newBlock()
	b.labels = map[string]*Block{}
	b.stmt(body)
	// Falling off the end of the body reaches the exit.
	b.edge(b.cur, b.cfg.Exit)
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	b.patchGotos()
	return b.cfg
}

// loopFrame is one enclosing breakable/continuable construct.
type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	frames []loopFrame
	labels map[string]*Block
	gotos  []pendingGoto
	// nextLabel names the label attached to the next loop/switch statement.
	nextLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add records a node in the current block.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.cfg.blockOf[n] = b.cur
}

// terminate ends the current block with an edge to `to` (nil for none) and
// continues building in a fresh, possibly unreachable block.
func (b *cfgBuilder) terminate(to *Block) {
	b.edge(b.cur, to)
	b.cur = b.newBlock()
}

// takeLabel consumes the pending label for a loop/switch statement.
func (b *cfgBuilder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

func (b *cfgBuilder) pushFrame(label string, breakTo, continueTo *Block) {
	b.frames = append(b.frames, loopFrame{label: label, breakTo: breakTo, continueTo: continueTo})
}

func (b *cfgBuilder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

// findBreak resolves the break target for an optional label.
func (b *cfgBuilder) findBreak(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label == "" || f.label == label {
			return f.breakTo
		}
	}
	return nil
}

// findContinue resolves the continue target for an optional label.
func (b *cfgBuilder) findContinue(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if f.continueTo == nil {
			continue // switch/select frames are not continue targets
		}
		if label == "" || f.label == label {
			return f.continueTo
		}
	}
	return nil
}

func (b *cfgBuilder) patchGotos() {
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target)
		}
	}
}

// stmt builds flow for one statement.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.IfStmt:
		b.stmt(s.Init)
		b.add(s.Cond)
		condBlk := b.cur
		thenBlk := b.newBlock()
		join := b.newBlock()
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmt(s.Body)
		b.edge(b.cur, join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(condBlk, join)
		}
		b.cur = join
	case *ast.ForStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		head := b.newBlock()
		b.edge(b.cur, head)
		body := b.newBlock()
		post := b.newBlock()
		done := b.newBlock()
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, done)
		}
		b.edge(head, body)
		b.pushFrame(label, done, post)
		b.cur = body
		b.stmt(s.Body)
		b.popFrame()
		b.edge(b.cur, post)
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, head)
		b.cur = done
	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head := b.newBlock()
		b.edge(b.cur, head)
		body := b.newBlock()
		done := b.newBlock()
		b.cur = head
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		b.edge(head, body)
		b.edge(head, done)
		b.pushFrame(label, done, head)
		b.cur = body
		b.stmt(s.Body)
		b.popFrame()
		b.edge(b.cur, head)
		b.cur = done
	case *ast.SwitchStmt:
		b.switchLike(s.Init, s.Tag, s.Body)
	case *ast.TypeSwitchStmt:
		b.stmt(s.Init)
		b.add(s.Assign) // the `v := x.(type)` guard evaluates in the eval block
		b.switchLike(nil, nil, s.Body)
	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.cur
		done := b.newBlock()
		b.pushFrame(label, done, nil)
		hasDefault := false
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.edge(sel, blk)
			b.cur = blk
			if cc.Comm == nil {
				hasDefault = true
			} else {
				b.stmt(cc.Comm)
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.edge(b.cur, done)
		}
		b.popFrame()
		_ = hasDefault // a defaultless select still terminates via some clause
		b.cur = done
	case *ast.LabeledStmt:
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		b.labels[s.Label.Name] = target
		b.nextLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.nextLabel = ""
	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			b.add(s)
			b.terminate(b.findBreak(label))
		case token.CONTINUE:
			b.add(s)
			b.terminate(b.findContinue(label))
		case token.GOTO:
			b.add(s)
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// Handled structurally in switchLike; nothing to record.
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.terminate(b.cfg.Exit)
	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(call) {
			b.terminate(b.cfg.Exit)
		}
	default:
		// Assignments, declarations, go statements, sends, inc/dec, empty
		// statements: straight-line.
		b.add(s)
	}
}

// switchLike builds flow for expression and type switches.
func (b *cfgBuilder) switchLike(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt) {
	label := b.takeLabel()
	b.stmt(init)
	if tag != nil {
		b.add(tag)
	}
	eval := b.cur
	done := b.newBlock()
	b.pushFrame(label, done, nil)
	var caseBlocks []*Block
	var caseClauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(eval, blk)
		caseBlocks = append(caseBlocks, blk)
		caseClauses = append(caseClauses, cc)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(eval, done)
	}
	for i, cc := range caseClauses {
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		falls := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				falls = true
				continue
			}
			b.stmt(st)
		}
		if falls && i+1 < len(caseBlocks) {
			b.edge(b.cur, caseBlocks[i+1])
		} else {
			b.edge(b.cur, done)
		}
	}
	b.popFrame()
	b.cur = done
}

// isPanicCall reports whether the expression is a direct call to the builtin
// panic. The builder treats it as terminating; analyzers that care whether
// the ident truly resolves to the builtin refine with type info.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// eachFunc visits every function with a body in the package: declarations
// and all nested function literals, each paired with its enclosing
// declaration (for diagnostics and scope classification). Literals in
// package-level initializers are visited too, with a nil declaration.
func eachFunc(files []*ast.File, fn func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt)) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, _ := d.(*ast.FuncDecl)
			if fd != nil && fd.Body != nil {
				fn(fd, nil, fd.Body)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fn(fd, lit, lit.Body)
				}
				return true
			})
		}
	}
}
