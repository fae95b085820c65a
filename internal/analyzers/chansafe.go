package analyzers

import (
	"go/ast"
	"go/types"
)

// ChanSafe enforces the channel close/ownership protocol across
// function boundaries, using the module call graph and a bottom-up
// close/send summary per function:
//
//   - a channel must not be closed twice on any path, counting closes
//     a callee performs on a channel it was handed (a `go` callee's
//     close counts immediately — that is exactly a close racing the
//     caller's next send);
//   - nothing may be sent on a channel after a close of it may have
//     happened, directly or by passing the closed channel to a callee
//     whose summary sends on (or closes) it;
//   - a function that closes a channel parameter — itself or via its
//     callees — owns that channel's close side, and must say so in its
//     signature by declaring the parameter send-only (chan<- T).
//     Closing a receive-only channel is already a compile error, so
//     the receive direction needs no analyzer.
//
// The may-closed state is tracked per function over the shared CFG
// with named channels keyed like lockcheck's guarded fields ("out",
// "mt.stop"); closures run at unknown times and are analyzed as
// separate bodies (deferred closures excluded from the flow — they run
// at exit — but their closes still count toward the summary).
var ChanSafe = &Analyzer{
	Name: "chansafe",
	Doc:  "enforce the channel close/ownership protocol (close once, by the declared owner, never send after close)",
	Run:  runChanSafe,
}

// chanFacts records what a function does to one of its channel-typed
// parameters, directly or through its callees.
type chanFacts struct{ closes, sends bool }

// chanSummary maps parameter index → facts; nil when the function has
// no channel parameters it touches.
type chanSummary map[int]chanFacts

func chanSummaryEqual(a, b chanSummary) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// chanSummaries computes (once per load) the close/send summaries of
// every module function, to fixpoint through the call graph.
func (ix *Index) chanSummaries() map[*cgNode]chanSummary {
	if s, ok := ix.sums["chansafe"].(map[*cgNode]chanSummary); ok {
		return s
	}
	s := summarize(ix.callGraph(), computeChanSummary, chanSummaryEqual)
	ix.sums["chansafe"] = s
	return s
}

func computeChanSummary(n *cgNode, get func(*cgNode) chanSummary) chanSummary {
	if n.Decl.Body == nil {
		return nil
	}
	params := chanParams(n)
	if len(params) == 0 {
		return nil
	}
	info := n.Pkg.TypesInfo
	facts := chanSummary{}
	mark := func(e ast.Expr, closes, sends bool) {
		if !closes && !sends {
			return
		}
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		idx, ok := params[info.Uses[id]]
		if !ok {
			return
		}
		f := facts[idx]
		f.closes = f.closes || closes
		f.sends = f.sends || sends
		facts[idx] = f
	}
	// Direct effects anywhere in the body, closures and defers
	// included: whenever the function runs them, the parameter's
	// channel is affected.
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if isCloseCall(info, x) {
				mark(x.Args[0], true, false)
			}
		case *ast.SendStmt:
			mark(x.Chan, false, true)
		}
		return true
	})
	// Delegated effects: a parameter handed to a static module callee
	// inherits what the callee's summary does to that position.
	for _, site := range n.Out {
		if site.Dynamic || len(site.Callees) != 1 {
			continue
		}
		cs := get(site.Callees[0])
		if len(cs) == 0 {
			continue
		}
		nparams := site.Callees[0].Fn.Signature().Params().Len()
		for ai, arg := range site.Call.Args {
			pi := ai
			if pi >= nparams {
				pi = nparams - 1
			}
			if f, ok := cs[pi]; ok {
				mark(arg, f.closes, f.sends)
			}
		}
	}
	if len(facts) == 0 {
		return nil
	}
	return facts
}

// chanParams maps a declaration's channel-typed parameter objects to
// their flattened parameter index.
func chanParams(n *cgNode) map[types.Object]int {
	out := map[types.Object]int{}
	if n.Decl.Type.Params == nil {
		return out
	}
	info := n.Pkg.TypesInfo
	idx := 0
	for _, field := range n.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				if _, ok := obj.Type().Underlying().(*types.Chan); ok {
					out[obj] = idx
				}
			}
			idx++
		}
	}
	return out
}

func isCloseCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 1 {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "close"
}

// chanKey names a channel expression for flow tracking, like
// lockcheck's instance keys: identifier/selector chains only, so two
// distinct opaque expressions never alias by accident.
func chanKey(e ast.Expr) (string, bool) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		if base, ok := chanKey(e.X); ok {
			return base + "." + e.Sel.Name, true
		}
	}
	return "", false
}

func runChanSafe(pass *Pass) error {
	g := pass.Index.callGraph()
	sums := pass.Index.chanSummaries()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if n := g.byKey[FuncKey(fn)]; n != nil {
				reportCloseOwnership(pass, n, sums[n])
			}
			closedFlow(pass, g, sums, fd.Body)
			for _, lit := range funcLits(fd.Body) {
				closedFlow(pass, g, sums, lit.Body)
			}
		}
	}
	return nil
}

// reportCloseOwnership flags bidirectional channel parameters the
// function's summary closes: close ownership must be visible in the
// signature.
func reportCloseOwnership(pass *Pass, n *cgNode, sum chanSummary) {
	if len(sum) == 0 || n.Decl.Type.Params == nil {
		return
	}
	idx := 0
	for _, field := range n.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, name := range field.Names {
			f, ok := sum[idx]
			idx++
			if !ok || !f.closes {
				continue
			}
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			ch, ok := obj.Type().Underlying().(*types.Chan)
			if !ok || ch.Dir() != types.SendRecv {
				continue
			}
			pass.Reportf(name.Pos(),
				"%s closes bidirectional channel parameter %s; declare it chan<- %s to make close ownership explicit",
				n.Fn.Name(), name.Name, ch.Elem())
		}
	}
}

// closedSet is the may-closed flow state: channel key → closed on some
// path.
type closedSet map[string]bool

func closedFlow(pass *Pass, g *callGraph, sums map[*cgNode]chanSummary, body *ast.BlockStmt) {
	cfg := NewCFG(body)
	transfer := func(b *Block, s closedSet) closedSet {
		return applyClosed(pass, g, sums, b, s, false)
	}
	meet := func(a, b closedSet) closedSet {
		if len(b) == 0 {
			return a
		}
		out := make(closedSet, len(a)+len(b))
		for k := range a {
			out[k] = true
		}
		for k := range b {
			out[k] = true
		}
		return out
	}
	equal := func(a, b closedSet) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	in := Iterate(cfg, closedSet{}, transfer, meet, equal)
	for _, b := range cfg.Blocks {
		if s, ok := in[b]; ok {
			applyClosed(pass, g, sums, b, s, true)
		}
	}
}

// closedState wraps the flow state with copy-on-write semantics, so
// the transfer function never mutates its input (Iterate requires it).
type closedState struct {
	set    closedSet
	cloned bool
}

func (st *closedState) has(key string) bool { return st.set[key] }

func (st *closedState) add(key string) {
	if st.set[key] {
		return
	}
	if !st.cloned {
		next := make(closedSet, len(st.set)+1)
		for k := range st.set {
			next[k] = true
		}
		st.set, st.cloned = next, true
	}
	st.set[key] = true
}

// applyClosed folds one block over the may-closed state; with report
// set (the post-fixpoint pass) it emits the diagnostics.
func applyClosed(pass *Pass, g *callGraph, sums map[*cgNode]chanSummary, b *Block, state closedSet, report bool) closedSet {
	st := &closedState{set: state}
	for _, nd := range b.Nodes {
		ast.Inspect(nd, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit, *ast.DeferStmt:
				return false // separate body / runs at exit
			case *ast.SendStmt:
				if key, ok := chanKey(x.Chan); ok && st.has(key) && report {
					pass.Reportf(x.Pos(), "send on %s, which may already be closed", key)
				}
			case *ast.CallExpr:
				if isCloseCall(pass.TypesInfo, x) {
					key, ok := chanKey(x.Args[0])
					if !ok {
						return true
					}
					if st.has(key) {
						if report {
							pass.Reportf(x.Pos(), "second close of %s on this path", key)
						}
					} else {
						st.add(key)
					}
					return true
				}
				applyCalleeEffects(pass, g, sums, x, st, report)
			}
			return true
		})
	}
	return st.set
}

// applyCalleeEffects applies a static module callee's summary to the
// channel arguments of one call: a closed channel handed to a sender
// or closer is a protocol violation, and a callee's close marks the
// argument closed for the rest of the caller (go-statement callees
// included — their close races everything that follows).
func applyCalleeEffects(pass *Pass, g *callGraph, sums map[*cgNode]chanSummary, call *ast.CallExpr, st *closedState, report bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || isInterfaceMethod(fn) {
		return
	}
	callee := g.byKey[FuncKey(fn)]
	if callee == nil {
		return
	}
	cs := sums[callee]
	if len(cs) == 0 {
		return
	}
	nparams := callee.Fn.Signature().Params().Len()
	for ai, arg := range call.Args {
		pi := ai
		if pi >= nparams {
			pi = nparams - 1
		}
		f, ok := cs[pi]
		if !ok {
			continue
		}
		key, ok := chanKey(arg)
		if !ok {
			continue
		}
		if st.has(key) && report {
			switch {
			case f.closes:
				pass.Reportf(arg.Pos(), "%s may already be closed when passed to %s, which closes it", key, callee.Fn.Name())
			case f.sends:
				pass.Reportf(arg.Pos(), "%s may already be closed when passed to %s, which sends on it", key, callee.Fn.Name())
			}
		}
		if f.closes {
			st.add(key)
		}
	}
}
