package lint

import (
	"go/ast"
	"go/types"
)

// Cross-package facts. Each analyzer that owns dataflow state exports
// a per-function summary fact so callers in other packages see through
// the call: a helper in an exempt package can no longer launder a
// violation (the gap the AST-only v1 suite had). Facts live in the
// Checker's in-memory table, keyed by the declaring *types.Func, from
// the moment that function's package is analyzed; the driver analyzes
// every package after its imports, so a caller in another package
// finds the fact of any function it can call statically.
//
// Suppressed sites do not contribute to facts: an //hbplint:ignore
// with a written reason vouches that the effect does not escape, so
// propagating it to callers would just demand a second suppression for
// the same sanctioned site.

// impureFact marks a function whose result or effect depends on
// process state rather than the simulation seed: wall-clock reads,
// global rand draws, goroutine spawns, raw channel operations —
// directly or through a static callee. Exported by determinism from
// every package, including the wall-clock-by-design service layers;
// consumed at call sites in simulation packages.
type impureFact struct {
	Reason string // e.g. "reads wall-clock time via time.Now"
}

// keyedInsertFact marks a function that inserts into a raw map under a
// key derived from one of its parameters. Params holds the indices of
// the laundering parameters (receiver excluded, 0-based). Exported by
// boundedgrowth from every package except internal/bounded (whose
// whole point is budgeted keyed state); consumed at call sites in
// defense packages where the argument is packet-derived.
type keyedInsertFact struct {
	Params []int
}

// allocFact marks a function that may allocate on the heap on some
// non-panicking path: composite literals behind pointers, make/new,
// append growth, closure captures, interface boxing — directly or
// through a static callee. Exported by hotalloc from every package;
// a //hbplint:hotpath function calling an alloc-fact function is a
// diagnostic.
type allocFact struct {
	Site string // human description of one allocation site
}

// blockingFact marks a function that may block the calling goroutine:
// fsync, HTTP round-trips, time.Sleep, channel operations, Wait calls
// — directly or through a static callee. Exported by locksafety;
// holding a mutex across a call to a blocking-fact function is a
// diagnostic in the service packages.
type blockingFact struct {
	Op string // e.g. "fsyncs via (*os.File).Sync"
}

// funcFor resolves the *types.Func a FuncDecl declares.
func funcFor(info *types.Info, decl *ast.FuncDecl) *types.Func {
	fn, _ := info.Defs[decl.Name].(*types.Func)
	return fn
}

// declSet holds a package's function declarations in source order, so
// every fixpoint below visits them deterministically — the summary a
// function ends up with (and hence the fact its callers read) must not
// depend on map iteration order.
type declSet struct {
	funcs []*types.Func
	body  map[*types.Func]*ast.FuncDecl
}

// collectDecls gathers the package's declared functions with bodies,
// in source order, skipping test files.
func collectDecls(pass *Pass) *declSet {
	ds := &declSet{body: map[*types.Func]*ast.FuncDecl{}}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := funcFor(pass.TypesInfo, fd)
			if fn == nil {
				continue
			}
			ds.funcs = append(ds.funcs, fn)
			ds.body[fn] = fd
		}
	}
	return ds
}

// localPropagate runs the bottom-up summary fixpoint the analyzers
// share: summaries[fn] starts from each function's direct effects
// (filled by the caller); calls to same-package functions then
// propagate summaries until nothing changes. via describes the callee
// in the propagated summary. Functions are visited in source order and
// call sites in traversal order, so the fixpoint is deterministic.
func localPropagate(
	pass *Pass,
	ds *declSet,
	summaries map[*types.Func]string,
	via func(callee *types.Func, calleeSummary string) string,
) {
	for changed := true; changed; {
		changed = false
		for _, fn := range ds.funcs {
			if _, done := summaries[fn]; done {
				continue
			}
			decl := ds.body[fn]
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if _, done := summaries[fn]; done {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := staticCallee(pass.TypesInfo, call)
				if callee == nil || callee.Pkg() != pass.Pkg || callee == fn {
					return true
				}
				if s, ok := summaries[callee]; ok {
					summaries[fn] = via(callee, s)
					changed = true
					return false
				}
				return true
			})
		}
	}
}

// isPanicCall reports whether e is a call to the predeclared panic —
// the marker of a cold guard path.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// paramIndex returns the 0-based index of obj among fn's parameters,
// or -1 if obj is not a parameter of fn.
func paramIndex(sig *types.Signature, obj types.Object) int {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == obj {
			return i
		}
	}
	return -1
}
