package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/flow"
)

// ShardIsolation enforces the ownership discipline the sharded engine
// (PR 7) rests on: shards only ever exchange state through
// des.Channel.Send, so a run over N shards replays bit-identically.
// Three ways of leaking state around the channel are flagged in
// simulation packages:
//
//   - writes to package-level variables: shards sharing the process
//     would race on them, and replay would depend on shard
//     interleaving. Reads are fine (configuration constants), and
//     init functions are exempt — they run before any shard starts.
//   - use of sync or sync/atomic primitives: shared-memory coupling
//     between shards reintroduces scheduling order that the channel
//     protocol exists to exclude. The engine package itself (des) is
//     exempt — it owns the barrier machinery the rule rides on.
//   - use of a pointer payload after handing it to des.Channel.Send:
//     once the channel takes the value the destination shard owns it;
//     the sender touching it afterwards is a cross-shard data race in
//     the parallel engine and a replay divergence in the sequential
//     one. The check is flow-sensitive (flow.ReachableFrom): a use on
//     a path the send cannot reach is fine. Reassigning the variable
//     does not launder it — finish all work on the value before the
//     Send instead.
//
// Writes through pointers (*p = v where p aliases a global) and
// payloads reached through selectors (c.Send(..., s.pkt, ...)) are
// not tracked; the rule is a tripwire for the direct patterns, not an
// alias analysis.
var ShardIsolation = &Analyzer{
	Name: "shardisolation",
	Doc:  "simulation state must stay shard-private; cross-shard flow rides des.Channel.Send",
	Run:  runShardIsolation,
}

func runShardIsolation(pass *Pass) {
	ig := newIgnores(pass, "shardisolation")
	defer ig.finish()
	if !simulationPkg(pass.Pkg.Path()) {
		return
	}
	engine := enginePkg(pass.Pkg.Path())
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		if !engine {
			checkSyncUse(pass, ig, f)
		}
	}
	ds := collectDecls(pass)
	for _, fn := range ds.funcs {
		decl := ds.body[fn]
		if decl.Recv == nil && decl.Name.Name == "init" {
			continue // runs before any shard starts
		}
		checkGlobalWrites(pass, ig, decl.Body)
		if !engine {
			checkUseAfterSend(pass, ig, decl.Body)
		}
	}
}

// enginePkg reports whether path is the discrete-event engine package,
// which owns the shard barrier machinery and is the one place
// sync/atomic belongs. Suffix-matched like netsimPkg so testdata stubs
// qualify.
func enginePkg(path string) bool {
	return path == "des" || lastSegment(path) == "des"
}

// checkSyncUse flags any mention of the sync or sync/atomic packages —
// type usages (sync.Mutex fields) and calls (atomic.AddInt64) alike,
// since both put shared-memory coupling into simulation code.
func checkSyncUse(pass *Pass, ig *ignores, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		switch pn.Imported().Path() {
		case "sync", "sync/atomic":
			ig.report(sel.Pos(), "simulation code uses %s.%s: shared-memory synchronization reintroduces the scheduling order the shard channel protocol excludes; cross-shard flow must ride des.Channel.Send", pn.Imported().Path(), sel.Sel.Name)
		}
		return true
	})
}

// checkGlobalWrites flags assignments and inc/dec whose target is a
// package-level variable (of this package or an imported one).
func checkGlobalWrites(pass *Pass, ig *ignores, body *ast.BlockStmt) {
	flag := func(e ast.Expr) {
		if v := writeTarget(pass.TypesInfo, e); v != nil {
			ig.report(e.Pos(), "simulation code writes package-level variable %s: shards sharing the process race on it and replay depends on shard interleaving; keep the state inside structures one shard owns", v.Name())
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true // := introduces locals, never targets globals
			}
			for _, lhs := range st.Lhs {
				flag(lhs)
			}
		case *ast.IncDecStmt:
			flag(st.X)
		}
		return true
	})
}

// writeTarget resolves the package-level variable an assignment target
// ultimately writes, or nil. It unwraps element and field accesses
// (global[k] = v and global.f = v both mutate the global) but stops at
// pointer indirection — a write through *p needs alias analysis to
// attribute.
func writeTarget(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					v, _ := info.Uses[x.Sel].(*types.Var)
					return pkgLevelVar(v)
				}
			}
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return pkgLevelVar(v)
		default:
			return nil
		}
	}
}

// pkgLevelVar returns v if it is a package-scope variable, else nil.
func pkgLevelVar(v *types.Var) *types.Var {
	if v == nil || v.IsField() || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// isChannelSend reports whether call is des.Channel.Send (matched by
// method name and receiver type so the testdata stub qualifies).
func isChannelSend(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Send" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Channel" && obj.Pkg() != nil && enginePkg(obj.Pkg().Path())
}

// checkUseAfterSend runs the flow-sensitive handoff check over one
// function body, recursing into nested function literals (each gets
// its own graph).
func checkUseAfterSend(pass *Pass, ig *ignores, body *ast.BlockStmt) {
	type sendSite struct {
		stmt ast.Stmt
		call *ast.CallExpr
	}
	var sends []sendSite
	var nested []*ast.BlockStmt
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if fl, ok := n.(*ast.FuncLit); ok {
			nested = append(nested, fl.Body)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isChannelSend(pass.TypesInfo, call) {
			for i := len(stack) - 1; i >= 0; i-- {
				if s, ok := stack[i].(ast.Stmt); ok {
					sends = append(sends, sendSite{stmt: s, call: call})
					break
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	for _, nb := range nested {
		checkUseAfterSend(pass, ig, nb)
	}
	if len(sends) == 0 {
		return
	}

	g := flow.New(body)
	for _, site := range sends {
		p, ok := g.PointOf(site.stmt)
		if !ok {
			continue // send buried in a control-flow header; out of scope
		}
		reach := g.ReachableFrom(p)
		for _, arg := range site.call.Args {
			id, ok := arg.(*ast.Ident)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok {
				continue
			}
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr {
				continue
			}
			usePos := token.NoPos
			for _, s := range reach {
				ast.Inspect(s, func(n ast.Node) bool {
					use, ok := n.(*ast.Ident)
					if ok && pass.TypesInfo.Uses[use] == types.Object(obj) {
						if usePos == token.NoPos || use.Pos() < usePos {
							usePos = use.Pos()
						}
					}
					return true
				})
			}
			if usePos != token.NoPos {
				ig.report(usePos, "%s is used after being sent across a shard boundary: once des.Channel.Send takes the value the destination shard owns it; finish all work on it before the send", obj.Name())
			}
		}
	}
}
