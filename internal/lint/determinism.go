package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism protects the bit-identical fixed-seed runs the
// fingerprint regression tests pin. In simulation packages it forbids
// the four ways nondeterminism leaks into a run:
//
//   - wall-clock reads (time.Now/Since/Until) — virtual time comes
//     from the des.Simulator clock;
//   - the global math/rand and math/rand/v2 generators — randomness
//     comes from seeded per-run des.RNG streams;
//   - goroutine spawns — a simulation run is one logical thread;
//   - raw Go channel operations (send, receive, range) — arrival
//     order at a channel is a scheduler race. Cross-shard
//     communication rides des.Channel's timestamped sends, which the
//     sharded engine merges under a partition-independent total
//     order;
//   - map iteration whose order escapes into scheduled events, sent
//     messages or emitted results. Order-independent loop bodies
//     (pure accumulation, deletes, collect-into-slice followed by a
//     sort) are recognized and allowed; anything else must iterate
//     over sorted keys.
//
// Every package — including the wall-clock-by-design service layers —
// additionally exports an impureFact for each function whose effect
// depends on process state, so a simulation call into an exempt
// package's helper no longer launders the nondeterminism out of sight.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock time, global rand, goroutines, raw channel ops, and map-iteration order leaks in simulation code",
	Run:  runDeterminism,
}

// forbiddenCalls maps package path -> function names whose results
// depend on process state rather than the simulation seed.
var forbiddenCalls = map[string]map[string]string{
	"time": {
		"Now":   "use the simulator clock (des.Simulator.Now), not wall-clock time",
		"Since": "use the simulator clock (des.Simulator.Now), not wall-clock time",
		"Until": "use the simulator clock (des.Simulator.Now), not wall-clock time",
	},
	"math/rand":    nil, // any package-level function
	"math/rand/v2": nil,
}

func runDeterminism(pass *Pass) {
	ig := newIgnores(pass, "determinism")
	defer ig.finish()
	// The scheduler packages (runtime and friends) are process state
	// itself; summarizing them would stamp an impureFact on every
	// allocation path. Same denylist as locksafety, same reasoning.
	// The testing package is likewise excluded: its timers read the
	// wall clock by definition, and the only non-test callers are
	// benchmark-harness helpers driving a *testing.B.
	if !schedulerPkg(pass.Pkg.Path()) && !harnessPkg(pass.Pkg.Path()) {
		exportImpureFacts(pass, ig)
	}
	if !simulationPkg(pass.Pkg.Path()) {
		return
	}
	inspect(pass, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			ig.report(n.Pos(), "goroutine spawn in simulation code: a fixed-seed run is one logical thread; move concurrency to a driver with a deterministic merge")
		case *ast.CallExpr:
			checkForbiddenCall(pass, ig, n)
			checkImportedImpure(pass, ig, n)
		case *ast.RangeStmt:
			checkChanRange(pass, ig, n)
			checkMapRange(pass, ig, n, stack)
		case *ast.SendStmt:
			ig.report(n.Pos(), "raw channel send in simulation code: arrival order is a scheduler race; route cross-shard communication through des.Channel's timestamped, deterministically merged sends")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ig.report(n.Pos(), "raw channel receive in simulation code: arrival order is a scheduler race; route cross-shard communication through des.Channel's timestamped, deterministically merged sends")
			}
		}
		return true
	})
}

// harnessPkg reports whether path is the Go test harness, whose
// wall-clock reads (b.ResetTimer, b.Elapsed) are the measurement
// itself, never simulation state.
func harnessPkg(path string) bool {
	return path == "testing" || strings.HasPrefix(path, "testing/")
}

// exportImpureFacts computes a bottom-up impurity summary for every
// function in the package and exports one impureFact per impure
// function. It runs on every package, not just simulation ones: the
// service layers read the wall clock by design and are exempt from
// diagnostics, but their exported helpers must still carry the taint so
// a simulation call site cannot launder a clock read through them.
// Suppressed sites do not contribute (the written reason vouches that
// the effect never reaches simulation state), and closure bodies are
// charged to whoever runs the closure, not to its builder.
func exportImpureFacts(pass *Pass, ig *ignores) {
	ds := collectDecls(pass)
	summaries := map[*types.Func]string{}
	for _, fn := range ds.funcs {
		if r := firstImpureSite(pass, ig, ds.body[fn].Body); r != "" {
			summaries[fn] = r
		}
	}
	localPropagate(pass, ds, summaries, func(callee *types.Func, s string) string {
		return "calls " + callee.Name() + ", which is impure: " + s
	})
	for _, fn := range ds.funcs {
		if s, ok := summaries[fn]; ok {
			pass.ExportFact(fn, &impureFact{Reason: s})
		}
	}
}

// firstImpureSite returns a description of the first unsuppressed
// impure operation in body, in source order, or "".
func firstImpureSite(pass *Pass, ig *ignores, body *ast.BlockStmt) string {
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			if !ig.suppressed(n.Pos()) {
				reason = "spawns a goroutine"
			}
			return false
		case *ast.SendStmt:
			if !ig.suppressed(n.Pos()) {
				reason = "performs a raw channel send"
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !ig.suppressed(n.Pos()) {
				reason = "performs a raw channel receive"
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok && !ig.suppressed(n.Pos()) {
					reason = "ranges over a raw channel"
				}
			}
		case *ast.CallExpr:
			if ig.suppressed(n.Pos()) {
				return true
			}
			if r := impureCallReason(pass, n); r != "" {
				reason = r
				return false
			}
			if callee := staticCallee(pass.TypesInfo, n); callee != nil && callee.Pkg() != nil && callee.Pkg() != pass.Pkg {
				if fact, ok := pass.ImportFact(callee.Origin()).(*impureFact); ok {
					reason = "calls " + callee.FullName() + ", which is impure: " + fact.Reason
					return false
				}
			}
		}
		return true
	})
	return reason
}

// impureCallReason classifies a direct call against the forbidden-call
// table for fact purposes: a short description of why the callee
// depends on process state, or "" if it does not.
func impureCallReason(pass *Pass, call *ast.CallExpr) string {
	fn := staticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	// The table describes the forbidden packages' exported API surface.
	// When hbplint analyzes those packages themselves for facts, their
	// internal helpers (rand.newSource, time's monotonic plumbing)
	// must not match, or the whitelisted constructors inherit bogus
	// facts.
	if fn.Pkg() == pass.Pkg {
		return ""
	}
	names, ok := forbiddenCalls[fn.Pkg().Path()]
	if !ok {
		return ""
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "" // methods run on explicitly seeded generators
	}
	if names == nil {
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return ""
		}
		return "draws from the global " + fn.Pkg().Name() + " generator via " + fn.Pkg().Name() + "." + fn.Name()
	}
	if _, ok := names[fn.Name()]; ok {
		return "reads wall-clock time via time." + fn.Name()
	}
	return ""
}

// checkImportedImpure flags a simulation call whose imported callee
// carries an impureFact — the cross-package half of the impurity check.
// Calls the forbidden-call table already owns are left to it, so a
// direct time.Now never reports twice.
func checkImportedImpure(pass *Pass, ig *ignores, call *ast.CallExpr) {
	fn := staticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		return
	}
	if impureCallReason(pass, call) != "" {
		return
	}
	fact, ok := pass.ImportFact(fn.Origin()).(*impureFact)
	if !ok {
		return
	}
	ig.report(call.Pos(), "call to %s, which is impure (%s): a fixed-seed run must depend only on its seed; take virtual time from des.Simulator and randomness from seeded des.RNG streams", fn.FullName(), fact.Reason)
}

func checkForbiddenCall(pass *Pass, ig *ignores, call *ast.CallExpr) {
	fn := staticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	names, ok := forbiddenCalls[fn.Pkg().Path()]
	if !ok {
		return
	}
	// Methods (e.g. (*rand.Rand).Int63 on a seeded generator) are
	// fine; only package-level functions touch global state.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	if names == nil {
		// Constructors build a generator from an explicit seed — the
		// deterministic path; only the package-level draw/seed
		// functions touch global process state.
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return
		}
		ig.report(call.Pos(), "global %s.%s in simulation code: draw from a seeded per-run RNG (des.RNG) instead", fn.Pkg().Name(), fn.Name())
		return
	}
	if why, ok := names[fn.Name()]; ok {
		ig.report(call.Pos(), "%s.%s in simulation code: %s", fn.Pkg().Name(), fn.Name(), why)
	}
}

// checkChanRange flags `for ... range ch` over a channel: the values
// a ranged channel yields, and the order they arrive in, depend on
// goroutine scheduling.
func checkChanRange(pass *Pass, ig *ignores, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return
	}
	ig.report(rng.Pos(), "range over a raw channel in simulation code: arrival order is a scheduler race; route cross-shard communication through des.Channel's timestamped, deterministically merged sends")
}

// checkMapRange flags `for ... range m` over a map unless the loop
// body is provably order-independent.
func checkMapRange(pass *Pass, ig *ignores, rng *ast.RangeStmt, stack []ast.Node) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var collected []ast.Expr
	if !orderIndependentBody(pass.TypesInfo, rng.Body, &collected) {
		ig.report(rng.Pos(), "map iteration order may escape into simulation state; iterate over sorted keys (or restructure the body to be order-independent)")
		return
	}
	if len(collected) == 0 {
		return
	}
	// Collect-then-sort: the body only appended to slices; a sort of
	// each collected slice must follow in the enclosing block,
	// otherwise the slice carries map order onward.
	for _, target := range collected {
		if !sortFollows(rng, target, stack) {
			ig.report(rng.Pos(), "map keys are collected into %q but never sorted afterwards; sort before use or the slice carries map order", types.ExprString(target))
			return
		}
	}
}

// orderIndependentBody reports whether every statement in the loop
// body is one whose final effect does not depend on iteration order:
// deletes, set-inserts of constants, pure accumulator updates
// (x += v, counters), collecting into slices via append (recorded in
// collected for the caller to verify a subsequent sort), and
// if/continue/break around those.
func orderIndependentBody(info *types.Info, body *ast.BlockStmt, collected *[]ast.Expr) bool {
	for _, st := range body.List {
		if !orderIndependentStmt(info, st, collected) {
			return false
		}
	}
	return true
}

func orderIndependentStmt(info *types.Info, st ast.Stmt, collected *[]ast.Expr) bool {
	switch st := st.(type) {
	case *ast.DeclStmt:
		// A var/const declaration inside the loop is per-iteration
		// scratch state; initializers must be call-free.
		g, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range g.Specs {
			if v, ok := spec.(*ast.ValueSpec); ok {
				for _, val := range v.Values {
					if hasNonPureCall(val) {
						return false
					}
				}
			}
		}
		return true
	case *ast.EmptyStmt:
		return true
	case *ast.BranchStmt:
		return st.Tok == token.CONTINUE || st.Tok == token.BREAK
	case *ast.BlockStmt:
		return orderIndependentBody(info, st, collected)
	case *ast.IfStmt:
		if st.Init != nil && !orderIndependentStmt(info, st.Init, collected) {
			return false
		}
		if hasNonPureCall(st.Cond) {
			return false
		}
		if !orderIndependentBody(info, st.Body, collected) {
			return false
		}
		return st.Else == nil || orderIndependentStmt(info, st.Else, collected)
	case *ast.IncDecStmt:
		return !hasNonPureCall(st.X)
	case *ast.ExprStmt:
		// delete(m, k) is order-independent: the final map state is
		// the same whatever the visit order.
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if _, ok := info.Uses[id].(*types.Builtin); ok {
					return true
				}
			}
		}
		return false
	case *ast.AssignStmt:
		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative accumulation; any function call in either
			// side could observe order, so require call-free operands.
			for _, e := range append(st.Lhs[:len(st.Lhs):len(st.Lhs)], st.Rhs...) {
				if hasNonPureCall(e) {
					return false
				}
			}
			return true
		case token.ASSIGN, token.DEFINE:
			if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				return false
			}
			// Set-insert: `m[k] = <constant>` is idempotent per key,
			// so the final map is the same in any visit order.
			if idx, ok := st.Lhs[0].(*ast.IndexExpr); ok {
				if t := info.TypeOf(idx.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap &&
						isConstantExpr(st.Rhs[0]) && !hasNonPureCall(idx.Index) {
						return true
					}
				}
				return false
			}
			// Collection: `xs = append(xs, ...)` (including into a
			// struct field). Anything else — `x = v` keeps the
			// last-visited value, which IS iteration order.
			switch st.Lhs[0].(type) {
			case *ast.Ident, *ast.SelectorExpr:
			default:
				return false
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" {
				return false
			}
			if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin {
				return false
			}
			if types.ExprString(call.Args[0]) != types.ExprString(st.Lhs[0]) {
				return false
			}
			for _, a := range call.Args[1:] {
				if hasNonPureCall(a) {
					return false
				}
			}
			*collected = append(*collected, st.Lhs[0])
			return true
		}
		return false
	}
	return false
}

// hasNonPureCall reports whether e contains any call except len/cap —
// a called function could observe iteration order through its own
// side effects.
func hasNonPureCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				return true
			}
			found = true
			return false
		}
		return true
	})
	return found
}

// sortFollows reports whether, after the range statement in its
// enclosing block, some statement calls a sort function over the
// collected slice before it is otherwise used.
func sortFollows(rng *ast.RangeStmt, slice ast.Expr, stack []ast.Node) bool {
	var block *ast.BlockStmt
	idx := -1
	for i := len(stack) - 2; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			for j, st := range b.List {
				if st == stack[i+1] {
					block, idx = b, j
					break
				}
			}
			break
		}
	}
	if block == nil {
		return false
	}
	target := types.ExprString(slice)
	for _, st := range block.List[idx+1:] {
		sorted := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
				return true
			}
			mentions := false
			for _, a := range call.Args {
				ast.Inspect(a, func(m ast.Node) bool {
					switch m := m.(type) {
					case *ast.Ident, *ast.SelectorExpr:
						if types.ExprString(m.(ast.Expr)) == target {
							mentions = true
							return false
						}
					}
					return true
				})
			}
			if mentions {
				sorted = true
				return false
			}
			return true
		})
		if sorted {
			return true
		}
	}
	return false
}

// isConstantExpr reports whether e is a literal constant (true, 1,
// "x", struct{}{}) — a value identical on every iteration, making a
// map insert idempotent per key.
func isConstantExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return e.Name == "true" || e.Name == "false" || e.Name == "nil"
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	}
	return false
}
