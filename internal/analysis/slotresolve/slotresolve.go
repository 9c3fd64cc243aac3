// Package slotresolve checks the circuit-breaker slot contract: every
// call to a breaker-style Allow method that returns true claims a slot
// that must be resolved exactly once — by Success, Failure or Cancel
// (or their Report* forms) — on every path out of the function,
// including early returns and explicit panics. In the half-open state
// Allow grants the single probe slot; leaking it parks the breaker
// half-open forever, a permanent fail-fast outage.
//
// What counts as a claim: a call to a method named Allow (or allow)
// returning a single bool, on a receiver whose method set also carries
// at least one resolution method (Success/Failure/Cancel,
// success/failure/cancelSlot, or ReportSuccess/ReportFailure/
// ReportCancelled). Slots are keyed by the receiver expression plus
// the call arguments, so h.Allow(peer) is resolved by
// h.ReportFailure(peer) but not by h.ReportFailure(other).
//
// The analysis is path-sensitive over the package's CFGs: an
// `if !b.Allow() { return }` guard claims only on the fallthrough
// edge, a bool variable bound to the Allow result is tracked through
// branches, and `return b.Allow()` transfers the obligation to the
// caller (which is how wrapper methods like client.Breaker.Allow stay
// clean).
// Deferred resolution calls count on every exit path. One level of
// interprocedural transfer: calling a same-package function whose body
// resolves slots (e.g. a loser-reaping helper) is treated as resolving
// the live claims. Claims made inside a function literal are analyzed
// in the literal's own CFG; resolutions inside literals launched on
// the claiming path are credited to it.
package slotresolve

import (
	"go/ast"
	"go/token"
	"go/types"

	"joinopt/internal/analysis"
	"joinopt/internal/analysis/cfg"
)

// Analyzer is the slotresolve analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "slotresolve",
	Doc:  "breaker Allow slots must resolve exactly once on all paths",
	Run:  run,
}

var resolutionNames = map[string]bool{
	"Success": true, "Failure": true, "Cancel": true,
	"success": true, "failure": true, "cancelSlot": true,
	"ReportSuccess": true, "ReportFailure": true, "ReportCancelled": true,
}

// claimInfo tracks one slot's status on the current path set.
type claimInfo struct {
	pos      token.Pos // position of the claiming Allow call
	call     string    // source text of the claiming call
	resolved bool      // true once resolved on every path seen so far
}

// state is the dataflow lattice value: live slots plus bool variables
// bound to Allow results. nil means "unreached".
type state struct {
	claims map[string]claimInfo
	binds  map[*types.Var]bindInfo
}

type bindInfo struct {
	key  string
	pos  token.Pos
	call string
}

func newState() *state {
	return &state{claims: map[string]claimInfo{}, binds: map[*types.Var]bindInfo{}}
}

func (s *state) clone() *state {
	out := newState()
	for k, v := range s.claims {
		out.claims[k] = v
	}
	for k, v := range s.binds {
		out.binds[k] = v
	}
	return out
}

func run(pass *analysis.Pass) error {
	a := &checker{pass: pass, resolvers: collectResolvers(pass)}
	for _, file := range pass.Files {
		analysis.WalkFuncs(file, func(node ast.Node, body *ast.BlockStmt) {
			a.checkFunc(body)
		})
		a.reportDiscards(file)
	}
	return nil
}

type checker struct {
	pass      *analysis.Pass
	resolvers map[*types.Func]bool
	reported  map[token.Pos]bool
}

// collectResolvers finds same-package functions whose bodies resolve
// slots, for one level of interprocedural transfer.
func collectResolvers(pass *analysis.Pass) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if _, ok := resolutionCall(pass.TypesInfo, call); ok {
						found = true
					}
				}
				return true
			})
			if found {
				out[obj] = true
			}
		}
	}
	return out
}

// reportDiscards flags bare-statement Allow calls: the bool result is
// the slot handle, so discarding it leaks any claim it made.
func (c *checker) reportDiscards(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
			if _, ok := claimCall(c.pass.TypesInfo, call); ok {
				c.pass.Reportf(call.Pos(), "result of %s discarded: a claimed slot would be leaked", types.ExprString(call))
			}
		}
		return true
	})
}

func (c *checker) checkFunc(body *ast.BlockStmt) {
	g := cfg.Build(body)
	prob := cfg.Problem[*state]{
		Entry:        newState(),
		Bottom:       func() *state { return nil },
		Transfer:     c.transfer,
		TransferEdge: c.transferEdge,
		Merge:        merge,
		Equal:        equal,
	}
	res := cfg.Forward(g, prob)
	c.reported = map[token.Pos]bool{}
	for _, exit := range []*cfg.Block{g.Exit, g.Panic} {
		s := res.In[exit]
		if s == nil {
			continue
		}
		for _, ci := range s.claims {
			if ci.resolved || c.reported[ci.pos] {
				continue
			}
			c.reported[ci.pos] = true
			c.pass.Reportf(ci.pos, "%s: slot may be claimed here but not resolved on every path (want exactly one Success/Failure/Cancel)", ci.call)
		}
	}
	// Deterministic re-walk from fixpoint inputs to flag slots resolved
	// a second time after already being resolved on every incoming path.
	for _, b := range g.Blocks {
		s := res.In[b]
		if s == nil {
			continue
		}
		s = s.clone()
		for _, n := range b.Nodes {
			c.flagDoubleResolve(n, s)
			s = c.transfer(n, s)
		}
	}
}

func (c *checker) flagDoubleResolve(n ast.Node, s *state) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	ast.Inspect(n, func(sub ast.Node) bool {
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, ok := resolutionCall(c.pass.TypesInfo, call)
		if !ok {
			return true
		}
		if ci, live := s.claims[key]; live && ci.resolved && !c.reported[call.Pos()] {
			c.reported[call.Pos()] = true
			c.pass.Reportf(call.Pos(), "%s: slot already resolved on every path reaching this call (a slot must resolve exactly once)", types.ExprString(call))
		}
		return true
	})
}

func (c *checker) transfer(n ast.Node, s *state) *state {
	if s == nil {
		return nil
	}
	// A defer registers its call for the exit paths; the CFG's
	// epilogue block replays it there, which is where it resolves.
	if _, ok := n.(*ast.DeferStmt); ok {
		return s
	}
	out := s.clone()
	if as, ok := n.(*ast.AssignStmt); ok {
		c.applyAssign(as, out)
	}
	// Resolutions anywhere in the node — including inside function
	// literals launched on this path, and in deferred calls (the CFG
	// lowers those into the epilogue block) — resolve matching slots.
	// Skip return statements' claim calls: `return b.Allow()` hands
	// the obligation to the caller.
	c.applyResolutions(n, out)
	return out
}

func (c *checker) applyAssign(as *ast.AssignStmt, s *state) {
	// `ok := b.Allow()` (or any RHS containing a direct claim call):
	// claim now, bind the result variable, and let branch edges on the
	// variable retract the claim on Allow==false paths.
	for i, rhs := range as.Rhs {
		calls := claimCallsIn(c.pass.TypesInfo, rhs)
		for _, cc := range calls {
			s.claims[cc.key] = claimInfo{pos: cc.pos, call: cc.text}
			if len(as.Rhs) == len(as.Lhs) && len(calls) == 1 {
				if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
						s.binds[v] = bindInfo{key: cc.key, pos: cc.pos, call: cc.text}
					} else if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
						s.binds[v] = bindInfo{key: cc.key, pos: cc.pos, call: cc.text}
					}
				}
			}
		}
	}
}

// applyResolutions marks slots resolved by any resolution call in the
// node's subtree. Claims inside return statements are never created in
// the first place (claimCallsIn only runs on assignments), which is
// what makes `return b.Allow()` an obligation transfer to the caller.
func (c *checker) applyResolutions(n ast.Node, s *state) {
	ast.Inspect(n, func(sub ast.Node) bool {
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, ok := resolutionCall(c.pass.TypesInfo, call); ok {
			if ci, live := s.claims[key]; live {
				ci.resolved = true
				s.claims[key] = ci
			}
			return true
		}
		// One-level summary: a same-package helper that resolves slots
		// (reaping abandoned requests, draining a result channel) resolves
		// the live claims.
		if fn := analysis.Callee(c.pass.TypesInfo, call); fn != nil && c.resolvers[fn] {
			for k, ci := range s.claims {
				ci.resolved = true
				s.claims[k] = ci
			}
		}
		return true
	})
}

func (c *checker) transferEdge(e cfg.Edge, s *state) *state {
	if s == nil || e.Cond == nil {
		return s
	}
	out := s.clone()
	c.applyCond(ast.Unparen(e.Cond), e.Branch, out)
	return out
}

// applyCond refines the state knowing cond evaluated to branch.
func (c *checker) applyCond(cond ast.Expr, branch bool, s *state) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			c.applyCond(x.X, !branch, s)
		}
	case *ast.BinaryExpr:
		switch {
		case x.Op == token.LAND && branch:
			// Both conjuncts are true.
			c.applyCond(x.X, true, s)
			c.applyCond(x.Y, true, s)
		case x.Op == token.LOR && !branch:
			// Both disjuncts are false.
			c.applyCond(x.X, false, s)
			c.applyCond(x.Y, false, s)
		case x.Op == token.LOR && branch:
			// `a || b.Allow()`: the claim may or may not exist; keep
			// the conservative may-claim.
			c.applyCond(x.X, true, s)
			c.applyCond(x.Y, true, s)
		}
	case *ast.CallExpr:
		if cc, ok := claimCall(c.pass.TypesInfo, x); ok && branch {
			if _, exists := s.claims[cc.key]; !exists {
				s.claims[cc.key] = claimInfo{pos: cc.pos, call: cc.text}
			}
		}
	case *ast.Ident:
		v, _ := c.pass.TypesInfo.Uses[x].(*types.Var)
		if v == nil {
			return
		}
		b, bound := s.binds[v]
		if !bound {
			return
		}
		if branch {
			if _, exists := s.claims[b.key]; !exists {
				s.claims[b.key] = claimInfo{pos: b.pos, call: b.call}
			}
		} else {
			// Allow returned false on this edge: no slot was claimed.
			if ci, live := s.claims[b.key]; live && !ci.resolved {
				delete(s.claims, b.key)
			}
		}
	}
}

func merge(a, b *state) *state {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := newState()
	for k, av := range a.claims {
		if bv, ok := b.claims[k]; ok {
			m := av
			m.resolved = av.resolved && bv.resolved
			if bv.pos < m.pos {
				m.pos, m.call = bv.pos, bv.call
			}
			out.claims[k] = m
			continue
		}
		if !av.resolved {
			out.claims[k] = av // may-unresolved survives the join
		}
	}
	for k, bv := range b.claims {
		if _, ok := a.claims[k]; !ok && !bv.resolved {
			out.claims[k] = bv
		}
	}
	for k, v := range a.binds {
		out.binds[k] = v
	}
	for k, v := range b.binds {
		out.binds[k] = v
	}
	return out
}

func equal(a, b *state) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.claims) != len(b.claims) || len(a.binds) != len(b.binds) {
		return false
	}
	for k, av := range a.claims {
		if bv, ok := b.claims[k]; !ok || av != bv {
			return false
		}
	}
	for k, av := range a.binds {
		if bv, ok := b.binds[k]; !ok || av != bv {
			return false
		}
	}
	return true
}

type claimRef struct {
	key  string
	pos  token.Pos
	text string
}

// claimCall recognizes a slot-claiming call: a method named Allow (or
// allow) returning a single bool, whose receiver type also has at
// least one resolution method.
func claimCall(info *types.Info, call *ast.CallExpr) (claimRef, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return claimRef{}, false
	}
	fn := analysis.Callee(info, call)
	if fn == nil || (fn.Name() != "Allow" && fn.Name() != "allow") {
		return claimRef{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 {
		return claimRef{}, false
	}
	if b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
		return claimRef{}, false
	}
	recvT := info.TypeOf(sel.X)
	if recvT == nil || !hasAnyMethod(recvT, resolutionNames) {
		return claimRef{}, false
	}
	return claimRef{
		key:  slotKey(sel.X, call.Args),
		pos:  call.Pos(),
		text: types.ExprString(call),
	}, true
}

// resolutionCall recognizes a slot-resolving call and returns its slot
// key. The receiver must also carry an Allow/allow method, so that
// unrelated Cancel/Close-style methods don't count.
func resolutionCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn := analysis.Callee(info, call)
	if fn == nil || !resolutionNames[fn.Name()] {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recvT := info.TypeOf(sel.X)
	if recvT == nil || !hasAnyMethod(recvT, map[string]bool{"Allow": true, "allow": true}) {
		return "", false
	}
	return slotKey(sel.X, call.Args), true
}

// slotKey names a slot by its receiver expression and arguments:
// h.Allow(peer) and h.ReportFailure(peer) share a key; h.Allow(peer)
// and h.ReportFailure(other) do not.
func slotKey(recv ast.Expr, args []ast.Expr) string {
	key := types.ExprString(recv) + "|"
	for i, a := range args {
		if i > 0 {
			key += ","
		}
		key += types.ExprString(a)
	}
	return key
}

// claimCallsIn finds direct claim calls in e, not descending into
// function literals (their claims belong to the literal's own CFG).
func claimCallsIn(info *types.Info, e ast.Expr) []claimRef {
	var out []claimRef
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if cc, ok := claimCall(info, call); ok {
				out = append(out, cc)
			}
		}
		return true
	})
	return out
}

// hasAnyMethod reports whether t's (pointer) method set contains any
// of names.
func hasAnyMethod(t types.Type, names map[string]bool) bool {
	if _, ok := t.Underlying().(*types.Interface); !ok {
		if _, ok := t.(*types.Pointer); !ok {
			t = types.NewPointer(t)
		}
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if names[ms.At(i).Obj().Name()] {
			return true
		}
	}
	return false
}
