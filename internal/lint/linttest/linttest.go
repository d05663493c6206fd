// Package linttest is a small analysistest-style harness for the
// hbplint analyzers. It type-checks the GOPATH-layout corpus under
// internal/lint/testdata/src: standard-library imports resolve
// through the source importer, corpus-local imports (the netsim stub,
// nested fixture packages) resolve recursively from testdata. Each
// corpus package then goes through lint.Checker, the same entry point
// cmd/hbplint drives, after the corpus packages it imports.
//
// Expectations are analysistest-compatible comments:
//
//	m[p.Src] = true // want `raw map insert`
//
// Every diagnostic must land on a line carrying a matching want
// regexp and every want must be hit, or the test fails. For a
// diagnostic reported on a comment itself (a reasonless
// //hbplint:ignore directive), use a block comment on the same line:
//
//	/* want `missing a reason` */ //hbplint:ignore determinism
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// loader resolves corpus-local packages ahead of the standard library.
type loader struct {
	fset *token.FileSet
	src  string // testdata/src root
	std  types.Importer
	pkgs map[string]*loaded
}

// loaded is one type-checked corpus package.
type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(src string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		src:  src,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*loaded{},
	}
}

// Import implements types.Importer over corpus + standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if lp, err := l.load(path); err != nil {
		return nil, err
	} else if lp != nil {
		return lp.pkg, nil
	}
	return l.std.Import(path)
}

// load type-checks the corpus package at path, or returns (nil, nil)
// if testdata holds no such package.
func (l *loader) load(path string) (*loaded, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(l.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil // not a corpus package; caller falls back to std
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("linttest: no Go files in %s", dir)
	}
	info := lint.NewInfo()
	cfg := &types.Config{Importer: l}
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("linttest: type-checking %s: %w", path, err)
	}
	lp := &loaded{pkg: pkg, files: files, info: info}
	l.pkgs[path] = lp
	return lp, nil
}

// want is one expectation comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile("want (`[^`]*`|\"[^\"]*\")")

// runner applies one analyzer across a Run call, memoizing per-package
// results so a package analyzed early as a dependency is not re-run
// when listed explicitly later.
type runner struct {
	l        *loader
	checker  *lint.Checker
	analyzed map[string][]lint.Diagnostic
}

// Run loads each corpus package (paths relative to testdata/src),
// applies the analyzer — corpus dependencies first, so their facts
// are in place — and compares diagnostics against the // want
// comments in the corpus sources.
func Run(t *testing.T, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(src)
	r := &runner{
		l:        l,
		checker:  &lint.Checker{Fset: l.fset, Analyzers: []*lint.Analyzer{a}},
		analyzed: map[string][]lint.Diagnostic{},
	}
	for _, path := range pkgPaths {
		lp, err := l.load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if lp == nil {
			t.Fatalf("%s: package not found under %s", path, src)
		}
		checkWants(t, a, l.fset, lp, r.analyze(lp))
	}
}

// analyze runs the checker on one corpus package, after its corpus
// dependencies, and returns its diagnostics.
func (r *runner) analyze(lp *loaded) []lint.Diagnostic {
	if diags, done := r.analyzed[lp.pkg.Path()]; done {
		return diags
	}
	// Mark before recursing: import cycles are impossible in valid Go,
	// but a stale map entry beats infinite recursion on a broken corpus.
	r.analyzed[lp.pkg.Path()] = nil
	for _, imp := range lp.pkg.Imports() {
		if dep, _ := r.l.load(imp.Path()); dep != nil {
			r.analyze(dep)
		}
	}
	diags := r.checker.Check(lp.files, lp.pkg, lp.info)
	r.analyzed[lp.pkg.Path()] = diags
	return diags
}

// checkWants compares diagnostics against the package's expectations.
// Both failure directions name the analyzer and the exact position, so
// a multi-analyzer test run attributes every mismatch.
func checkWants(t *testing.T, a *lint.Analyzer, fset *token.FileSet, lp *loaded, diags []lint.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, lp.files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if w := matchWant(wants, pos, d.Message); w == nil {
			t.Errorf("%s: [%s] unexpected diagnostic: %s", pos, a.Name, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: [%s] expected diagnostic matching %q, got none", w.file, w.line, a.Name, w.re)
		}
	}
}

// collectWants extracts // want expectations, sorted by position.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var ws []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat := m[1][1 : len(m[1])-1] // strip quotes/backquotes
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", fset.Position(c.Pos()), pat, err)
				}
				pos := fset.Position(c.Pos())
				ws = append(ws, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].file != ws[j].file {
			return ws[i].file < ws[j].file
		}
		return ws[i].line < ws[j].line
	})
	return ws
}

// matchWant marks and returns the expectation covering a diagnostic.
func matchWant(ws []*want, pos token.Position, msg string) *want {
	for _, w := range ws {
		if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(msg) {
			w.hit = true
			return w
		}
	}
	return nil
}
