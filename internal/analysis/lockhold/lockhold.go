// Package lockhold checks that no blocking operation happens while a
// sync.Mutex or sync.RWMutex is held: channel sends and receives
// (including `<-ctx.Done()` waits and ranging over a channel), selects
// without a default clause, time.Sleep, WaitGroup.Wait, and network
// I/O through net/http or net dials. A request handler that blocks on
// the network inside a cache shard's critical section convoys every
// other request on that shard behind one slow peer.
//
// The analysis is a may-held dataflow over the CFG: Lock/RLock adds
// the receiver to the held set, Unlock/RUnlock removes it, and a
// `defer mu.Unlock()` keeps the mutex held to the end of the function
// (the epilogue releases it after the last real node, which is
// correct: blocking before the defer fires is still blocking under
// the lock). One level of interprocedural transfer within the
// package: calling a function whose body blocks is itself blocking.
// sync.Cond.Wait is deliberately not blocking — it releases the mutex
// while waiting. Function literals are separate functions: launching
// a goroutine that blocks is fine; the goroutine's own body is
// analyzed with its own (empty) held set.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"

	"joinopt/internal/analysis"
	"joinopt/internal/analysis/cfg"
)

// Analyzer is the lockhold analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "no blocking calls (network I/O, channel ops, selects) while holding a mutex",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, blockers: map[*types.Func]token.Pos{}}
	c.collectBlockers()
	for _, file := range pass.Files {
		c.commStmts = map[ast.Stmt]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectStmt); ok {
				for _, cl := range sel.Body.List {
					if comm := cl.(*ast.CommClause).Comm; comm != nil {
						c.commStmts[comm] = true
					}
				}
			}
			return true
		})
		analysis.WalkFuncs(file, func(node ast.Node, body *ast.BlockStmt) {
			c.checkFunc(body)
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// blockers maps same-package functions that may block to the
	// position of their first blocking operation.
	blockers map[*types.Func]token.Pos
	// commStmts are select communication clauses: their channel ops
	// are adjudicated by the select head, not as standalone ops.
	commStmts map[ast.Stmt]bool
}

// mutexMethod recognizes (*sync.Mutex)/(*sync.RWMutex) Lock/RLock/
// Unlock/RUnlock calls (including promoted methods of embedded
// mutexes) and returns the held-set key and whether it acquires.
func (c *checker) mutexMethod(call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), true, true
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), false, true
	}
	return "", false, false
}

// directBlocking returns the position and description of the first
// blocking operation directly inside root (not descending into
// function literals), or false.
func (c *checker) directBlocking(root ast.Node) (token.Pos, string, bool) {
	var pos token.Pos
	var what string
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case ast.Stmt:
			if c.commStmts[x] {
				return false // the select head owns this channel op
			}
			switch s := x.(type) {
			case *ast.SendStmt:
				pos, what, found = s.Arrow, "channel send", true
				return false
			case *ast.SelectStmt:
				if !hasDefault(s) {
					pos, what, found = s.Select, "select without default", true
					return false
				}
				// A select with default polls; its clauses are
				// non-blocking, but their bodies may still block.
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				pos, what, found = x.OpPos, "channel receive", true
				return false
			}
		case *ast.CallExpr:
			if p, w, ok := c.callBlocks(x); ok {
				pos, what, found = p, w, true
				return false
			}
		}
		return true
	})
	if !found {
		return token.NoPos, "", false
	}
	return pos, what, true
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cl.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// callBlocks reports whether call is a known-blocking stdlib call or a
// same-package function summarized as blocking.
func (c *checker) callBlocks(call *ast.CallExpr) (token.Pos, string, bool) {
	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		return token.NoPos, "", false
	}
	if _, ok := c.blockers[fn]; ok {
		return call.Pos(), "call to blocking " + fn.Name(), true
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	switch pkg {
	case "time":
		if name == "Sleep" {
			return call.Pos(), "time.Sleep", true
		}
	case "sync":
		if name == "Wait" && recvNamed(fn) == "WaitGroup" {
			return call.Pos(), "WaitGroup.Wait", true
		}
	case "net/http":
		switch name {
		case "Do", "Get", "Post", "PostForm", "Head", "RoundTrip":
			return call.Pos(), "net/http " + name, true
		}
	case "net":
		switch name {
		case "Dial", "DialTimeout", "DialContext", "Listen", "Accept":
			return call.Pos(), "net." + name, true
		}
	}
	return token.NoPos, "", false
}

func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// collectBlockers summarizes which package functions may block,
// iterating to a fixpoint so helper chains transfer.
func (c *checker) collectBlockers() {
	type decl struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var decls []decl
	for _, file := range c.pass.Files {
		// Comm statements must be known before summarizing.
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectStmt); ok {
				for _, cl := range sel.Body.List {
					if comm := cl.(*ast.CommClause).Comm; comm != nil {
						if c.commStmts == nil {
							c.commStmts = map[ast.Stmt]bool{}
						}
						c.commStmts[comm] = true
					}
				}
			}
			return true
		})
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); fn != nil {
				decls = append(decls, decl{fn, fd.Body})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if _, done := c.blockers[d.fn]; done {
				continue
			}
			if pos, _, ok := c.directBlocking(d.body); ok {
				c.blockers[d.fn] = pos
				changed = true
			}
		}
	}
}

// state is the may-held lock set: key → Lock-site position. nil =
// unreached.
type state map[string]token.Pos

func (c *checker) checkFunc(body *ast.BlockStmt) {
	g := cfg.Build(body)
	prob := cfg.Problem[state]{
		Entry:  state{},
		Bottom: func() state { return nil },
		Transfer: func(n ast.Node, s state) state {
			if s == nil {
				return nil
			}
			return c.transfer(n, s)
		},
		Merge: func(a, b state) state {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			out := state{}
			for k, v := range a {
				out[k] = v
			}
			for k, v := range b {
				if have, ok := out[k]; !ok || v < have {
					out[k] = v
				}
			}
			return out
		},
		Equal: func(a, b state) bool {
			if (a == nil) != (b == nil) || len(a) != len(b) {
				return false
			}
			for k, av := range a {
				if bv, ok := b[k]; !ok || av != bv {
					return false
				}
			}
			return true
		},
	}
	res := cfg.Forward(g, prob)

	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, what, lock string) {
		if !reported[pos] {
			reported[pos] = true
			c.pass.Reportf(pos, "%s while holding mutex %q", what, lock)
		}
	}
	for _, b := range g.Blocks {
		s := res.In[b]
		if s == nil {
			continue
		}
		if b.Kind == cfg.SelectHead && len(s) > 0 {
			if sel, ok := b.Stmt.(*ast.SelectStmt); ok && !hasDefault(sel) {
				report(sel.Select, "select without default", minKey(s))
			}
		}
		if b.Kind == cfg.RangeHead && len(s) > 0 {
			if rs, ok := b.Stmt.(*ast.RangeStmt); ok {
				if t := c.pass.TypesInfo.TypeOf(rs.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						report(rs.For, "ranging over a channel", minKey(s))
					}
				}
			}
		}
		cur := cloneState(s)
		for _, n := range b.Nodes {
			if len(cur) > 0 {
				if pos, what, ok := c.nodeBlocking(n); ok {
					report(pos, what, minKey(cur))
				}
			}
			cur = c.transfer(n, cur)
		}
	}
}

// minKey picks the lexically smallest held-lock name, keeping
// diagnostic text deterministic when several locks are held.
func minKey(s state) string {
	min := ""
	for k := range s {
		if min == "" || k < min {
			min = k
		}
	}
	return min
}

func cloneState(s state) state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// nodeBlocking is directBlocking, except defers: a deferred call runs
// at exit, so its blockingness belongs to the epilogue replay.
func (c *checker) nodeBlocking(n ast.Node) (token.Pos, string, bool) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return token.NoPos, "", false
	}
	return c.directBlocking(n)
}

func (c *checker) transfer(n ast.Node, s state) state {
	// Deferred unlocks release at exit, not at registration.
	if _, ok := n.(*ast.DeferStmt); ok {
		return s
	}
	out := cloneState(s)
	ast.Inspect(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, acquire, ok := c.mutexMethod(call); ok {
			if acquire {
				out[key] = call.Pos()
			} else {
				delete(out, key)
			}
		}
		return true
	})
	return out
}
