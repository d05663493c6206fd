package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
)

// hotpathDirective marks a function as a hot-path root in its doc
// comment:
//
//	//hbplint:hotpath <reason>
//
// The roots are the entry points hbpbench measures (des.Simulator.Run,
// the netsim forwarding entries; TestHotPathRootsExercised names the
// workload or row for each); hotalloc closes
// them under the package's static call graph and requires the whole
// region to stay allocation-free, keeping PR 2's 0 allocs/hop true by
// construction rather than by benchmark vigilance.
const hotpathDirective = "hbplint:hotpath"

// HotAlloc enforces allocation freedom on the simulation hot path.
// Within the hot region it flags heap-escaping composites (&T{...},
// slice/map literals), make/new, append growth, closures capturing
// enclosing variables, string/[]byte conversions and concatenation,
// interface boxing of non-pointer values, and variadic calls (the
// argument slice allocates). Paths that terminate in panic are cold
// and exempt — the guard's Sprintf never runs on the measured path.
//
// Cross-package calls are checked through allocFact summaries: every
// package exports "may allocate" facts for its functions (computed
// bottom-up over static calls), so a hot function calling an imported
// allocator is flagged at the call site without any whole-program
// build. Dynamic calls (interface methods, stored function values) are
// not followed; the handlers installed on the hot path are annotated
// roots themselves.
var HotAlloc = &analysis.Analyzer{
	Name:      "hotalloc",
	Doc:       "forbid heap allocation in functions reachable from //hbplint:hotpath roots",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*allocFact)(nil)},
	Run:       runHotAlloc,
}

// allocSite is one allocation found in a function body.
type allocSite struct {
	pos  token.Pos
	what string
}

func runHotAlloc(pass *analysis.Pass) (any, error) {
	ig := newIgnores(pass, "hotalloc")
	defer ig.finish()
	ds := collectDecls(pass)

	// Direct allocation sites per function (suppressed sites excluded,
	// cold panic paths skipped, FuncLit bodies owned by the closure).
	sites := map[*types.Func][]allocSite{}
	for _, fn := range ds.funcs {
		sites[fn] = hotAllocSites(pass, ig, ds.body[fn])
	}

	// Summaries: first direct site, then transitive closure over
	// same-package static calls.
	summaries := map[*types.Func]string{}
	for _, fn := range ds.funcs {
		if ss := sites[fn]; len(ss) > 0 {
			summaries[fn] = ss[0].what + " at " + pass.Fset.Position(ss[0].pos).String()
		}
	}
	localPropagate(pass, ds, summaries, func(callee *types.Func, s string) string {
		return "calls " + callee.Name() + ", which allocates: " + s
	})
	for _, fn := range ds.funcs {
		if s, ok := summaries[fn]; ok {
			pass.ExportObjectFact(fn, &allocFact{Site: s})
		}
	}

	// Hot region: //hbplint:hotpath roots closed under same-package
	// static calls.
	hot := map[*types.Func]bool{}
	var rootOrder []*types.Func
	for _, fn := range ds.funcs {
		if isHotpathRoot(ds.body[fn]) {
			hot[fn] = true
			rootOrder = append(rootOrder, fn)
		}
	}
	for i := 0; i < len(rootOrder); i++ {
		fn := rootOrder[i]
		ast.Inspect(ds.body[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() != pass.Pkg || hot[callee] {
				return true
			}
			if _, declared := ds.body[callee]; !declared {
				return true // assembly or external declaration
			}
			hot[callee] = true
			rootOrder = append(rootOrder, callee)
			return true
		})
	}

	// Diagnostics, in source order over the hot region: direct sites,
	// plus call sites whose imported callee carries an allocFact.
	hotOrder := make([]*types.Func, 0, len(hot))
	for fn := range hot {
		hotOrder = append(hotOrder, fn)
	}
	sort.Slice(hotOrder, func(i, j int) bool { return hotOrder[i].Pos() < hotOrder[j].Pos() })
	for _, fn := range hotOrder {
		for _, s := range sites[fn] {
			ig.report(s.pos, "%s in hot-path function %s: the //hbplint:hotpath region must stay allocation-free (PR 2's 0 allocs/hop)", s.what, fn.Name())
		}
		ast.Inspect(ds.body[fn].Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // the closure is not on the hot path; its creation was already flagged
			case *ast.CallExpr:
				if isPanicCall(n) {
					return false // cold guard path
				}
				callee := staticCallee(pass.TypesInfo, n)
				if callee == nil || callee.Pkg() == nil || callee.Pkg() == pass.Pkg {
					return true
				}
				fact := new(allocFact)
				if pass.ImportObjectFact(callee, fact) {
					ig.report(n.Pos(), "hot-path function %s calls %s, which allocates: %s", fn.Name(), callee.FullName(), fact.Site)
				}
			}
			return true
		})
	}
	return nil, nil
}

// isHotpathRoot reports whether the declaration's doc comment carries
// the //hbplint:hotpath directive. CommentGroup.Text() strips
// directive-shaped lines, so scan the raw comments.
func isHotpathRoot(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(c.Text, "//"+hotpathDirective) {
			return true
		}
	}
	return false
}

// hotAllocSites walks one function body collecting allocation sites.
func hotAllocSites(pass *analysis.Pass, ig *ignores, decl *ast.FuncDecl) []allocSite {
	info := pass.TypesInfo
	var out []allocSite
	// A suppressed site is excluded from the function's summary too:
	// the written reason vouches that the allocation is sanctioned
	// (slab growth, pool warm-up), so callers need not re-suppress it.
	add := func(pos token.Pos, what string) {
		if !ig.suppressed(pos) {
			out = append(out, allocSite{pos: pos, what: what})
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The closure value itself: creating a literal that captures
			// enclosing variables allocates the capture record. A
			// capture-free literal compiles to a static function value.
			if capt := captures(info, n); capt != "" {
				add(n.Pos(), "closure capturing "+capt)
			}
			return false // body belongs to the closure, not this function
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					add(n.Pos(), "heap-escaping composite literal &"+typeLabel(info, n.X))
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					add(n.Pos(), "slice/map literal "+typeLabel(info, n))
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.TypeOf(n); t != nil && isStringType(t) {
					add(n.Pos(), "string concatenation")
				}
			}
		case *ast.CallExpr:
			return callAllocSites(info, n, add)
		}
		return true
	})
	return out
}

// callAllocSites classifies one call expression; the return value
// tells the walker whether to descend into the call's children.
func callAllocSites(info *types.Info, call *ast.CallExpr, add func(token.Pos, string)) bool {
	if isPanicCall(call) {
		return false // cold guard path: panic and its arguments never run hot
	}
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				add(call.Pos(), "make")
			case "new":
				add(call.Pos(), "new")
			case "append":
				add(call.Pos(), "append growth")
			}
			return true
		}
	}
	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		target := info.TypeOf(call)
		op := info.TypeOf(call.Args[0])
		if target != nil && op != nil {
			switch {
			case isStringType(target) && isByteOrRuneSlice(op):
				add(call.Pos(), "[]byte/[]rune-to-string conversion")
			case isByteOrRuneSlice(target) && isStringType(op):
				add(call.Pos(), "string-to-[]byte/[]rune conversion")
			case types.IsInterface(target.Underlying()) && !pointerShaped(op):
				add(call.Pos(), "interface boxing of "+op.String())
			}
		}
		return true
	}
	// Ordinary call: boxing at interface-typed parameters, and the
	// variadic argument slice.
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // spread of an existing slice: no new backing array
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil {
			continue
		}
		if types.IsInterface(pt.Underlying()) && !types.IsInterface(at.Underlying()) && !pointerShaped(at) && !isUntypedNil(info, arg) {
			add(arg.Pos(), "interface boxing of "+at.String())
		}
	}
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= params.Len() {
		add(call.Pos(), "variadic call allocates its argument slice")
	}
	return true
}

// captures returns a comma-joined list of enclosing variables the
// function literal closes over, or "" for a capture-free literal.
func captures(info *types.Info, lit *ast.FuncLit) string {
	var names []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		// Package-level variables are not captures; neither is anything
		// declared inside the literal itself.
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return true
		}
		if lit.Pos() <= obj.Pos() && obj.Pos() < lit.End() {
			return true
		}
		seen[obj] = true
		names = append(names, obj.Name())
		return true
	})
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func typeLabel(info *types.Info, e ast.Expr) string {
	if t := info.TypeOf(e); t != nil {
		return t.String()
	}
	return "literal"
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit an interface word
// without a heap copy: pointers, channels, maps, funcs, unsafe
// pointers.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
