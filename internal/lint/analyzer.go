package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one hbplint check. Run inspects one package through
// its Pass and reports what it finds with Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	checker *Checker
	diags   *[]Diagnostic
}

// A Diagnostic is one finding: the analyzer that made it, where, and
// what.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// ExportFact attaches this analyzer's summary fact to fn, a function
// declared in the package under analysis, for importers to read.
func (p *Pass) ExportFact(fn *types.Func, fact any) {
	if fn.Pkg() != p.Pkg {
		panic("lint: " + p.Analyzer.Name + " exports a fact for " + fn.FullName() + " outside " + p.Pkg.Path())
	}
	p.checker.facts[factKey{p.Analyzer, fn}] = fact
}

// ImportFact returns the fact this analyzer exported for fn while
// analyzing fn's package, or nil.
func (p *Pass) ImportFact(fn *types.Func) any {
	return p.checker.facts[factKey{p.Analyzer, fn}]
}

type factKey struct {
	a  *Analyzer
	fn *types.Func
}

// A Checker runs a suite of analyzers over packages handed to it in
// dependency order, each after every package it imports, so the
// function facts a package exports are in the table when its importers
// are analyzed. The table lives as long as the Checker, in memory.
type Checker struct {
	Fset      *token.FileSet
	Analyzers []*Analyzer
	// Stale turns on the stale-suppression audit: every
	// //hbplint:ignore directive that suppressed nothing is reported.
	Stale bool

	facts map[factKey]any
}

// Check runs every analyzer on one type-checked package and returns
// the diagnostics sorted by position, then analyzer, then message.
func (c *Checker) Check(files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	if c.facts == nil {
		c.facts = map[factKey]any{}
	}
	var diags []Diagnostic
	for _, a := range c.Analyzers {
		a.Run(&Pass{Analyzer: a, Fset: c.Fset, Files: files, Pkg: pkg, TypesInfo: info, checker: c, diags: &diags})
	}
	sort.SliceStable(diags, func(i, j int) bool {
		di, dj := diags[i], diags[j]
		if di.Pos != dj.Pos {
			return di.Pos < dj.Pos
		}
		if di.Analyzer != dj.Analyzer {
			return di.Analyzer < dj.Analyzer
		}
		return di.Message < dj.Message
	})
	return diags
}

// NewInfo returns a types.Info recording everything the analyzers read.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// inspect walks the pass's non-test files in order and calls f on
// every node with the stack of nodes enclosing it: stack[0] is the
// *ast.File and the last element is the node itself. When f returns
// false the node's children are skipped.
func inspect(pass *Pass, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			if !f(n, stack) {
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}

// staticCallee resolves the statically known target of a call, or nil
// for dynamic calls (interface methods, function values). Builtins and
// conversions also return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	// Look through an explicit instantiation, F[T](x). In m[0]() the
	// index names a value, which the *types.Func check below rejects.
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = e.X
	case *ast.IndexListExpr:
		fun = e.X
	}
	var obj types.Object
	switch e := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[e.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return fn
}
