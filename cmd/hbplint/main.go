// Command hbplint runs the project's invariant analyzers (see
// internal/lint) over Go packages:
//
//	go run ./cmd/hbplint ./...
//	go run ./cmd/hbplint -stale ./...
//	go run ./cmd/hbplint -ignores ./...
//
// It lists the packages the patterns match, their test variants and
// every dependency with `go list -deps -test -json` (CGO_ENABLED=0),
// type-checks all of them from source in this one process, and runs
// the suite over them in dependency order through lint.Checker.
// Dependencies, the standard library included, are analyzed only for
// the function facts their importers read. Diagnostics are printed as
//
//	file:line:col: analyzer: message
//
// for the matched packages only: each package with its in-package
// tests, plus its external test package. The exit status is 1 when
// anything is reported.
//
// Flags:
//
//	-stale    also report every //hbplint:ignore directive whose line
//	          no longer triggers the named analyzer.
//	-ignores  instead of analyzing, list every //hbplint:ignore
//	          suppression in the matched packages' files with
//	          file:line, analyzer and reason: the suppression debt at
//	          a glance. Exits 1 if any directive is missing its reason.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run is hbplint on the module in dir; it returns the exit status.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stale := fs.Bool("stale", false, "also report //hbplint:ignore directives that suppress nothing")
	ignores := fs.Bool("ignores", false, "list every //hbplint:ignore directive instead of analyzing")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: hbplint [-stale | -ignores] [packages]")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "analyzers:")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := filepath.Abs(dir)
	if err == nil {
		var pkgs []*listed
		if pkgs, err = goList(dir, patterns); err == nil {
			if *ignores {
				err = listIgnores(dir, pkgs, stdout)
			} else {
				err = analyze(dir, pkgs, *stale, stdout)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "hbplint:", err)
		return 1
	}
	return 0
}

// listed is one package of `go list -json` output.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	DepOnly    bool
	ForTest    string

	reported bool // matched by the patterns, as go vet covers them
}

// goList lists the patterns' packages and their dependencies, every
// package after the ones it imports, and marks the ones to report on:
// a matched package with its in-package tests (or the package alone
// when it has none) and its external test package. Generated test
// mains are dropped.
func goList(dir string, patterns []string) ([]*listed, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-test",
		"-json=ImportPath,Dir,GoFiles,ImportMap,DepOnly,ForTest"}, patterns...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []*listed
	withTests := map[string]bool{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		if p.ForTest == "" && strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.ImportPath == p.ForTest+" ["+p.ForTest+".test]" {
			withTests[p.ForTest] = true
		}
		pkgs = append(pkgs, p)
	}
	for _, p := range pkgs {
		variant := " [" + p.ForTest + ".test]"
		p.reported = !p.DepOnly && (p.ForTest == "" && !withTests[p.ImportPath] ||
			p.ImportPath == p.ForTest+variant || p.ImportPath == p.ForTest+"_test"+variant)
	}
	return pkgs, nil
}

// parse parses a package's files with comments.
func parse(fset *token.FileSet, p *listed) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// importer resolves one package's imports, through its ImportMap, to
// packages already type-checked.
type importer struct {
	p       *listed
	checked map[string]*types.Package
}

func (im importer) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if id, ok := im.p.ImportMap[path]; ok {
		path = id
	}
	if pkg := im.checked[path]; pkg != nil {
		return pkg, nil
	}
	return nil, fmt.Errorf("%s imports %s, which go list did not list first", im.p.ImportPath, path)
}

// analyze type-checks every listed package in order, runs the suite
// over each and prints the diagnostics of the reported ones. A
// package's syntax and type information are dropped once it has been
// analyzed; only its *types.Package and its facts stay.
func analyze(dir string, pkgs []*listed, stale bool, stdout io.Writer) error {
	fset := token.NewFileSet()
	c := &lint.Checker{Fset: fset, Analyzers: lint.Analyzers(), Stale: stale}
	sizes := types.SizesFor("gc", build.Default.GOARCH)
	checked := map[string]*types.Package{}
	n := 0
	for _, p := range pkgs {
		if p.ImportPath == "unsafe" {
			continue
		}
		files, err := parse(fset, p)
		if err != nil {
			return err
		}
		conf := types.Config{Importer: importer{p, checked}, Sizes: sizes}
		info := lint.NewInfo()
		pkg, err := conf.Check(strings.Fields(p.ImportPath)[0], fset, files, info)
		if err != nil {
			return fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		diags := c.Check(files, pkg, info)
		if !p.reported {
			continue
		}
		for _, d := range diags {
			fmt.Fprint(stdout, shorten(dir, fmt.Sprintf("%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)))
			n++
		}
	}
	if n > 0 {
		return fmt.Errorf("%d diagnostic(s)", n)
	}
	return nil
}

// listIgnores prints every //hbplint:ignore directive in the reported
// packages' files, sorted by position. Returns an error (exit 1) when
// a directive is missing its written reason.
func listIgnores(dir string, pkgs []*listed, stdout io.Writer) error {
	type entry struct {
		pos      token.Position
		analyzer string
		reason   string
	}
	fset := token.NewFileSet()
	var out []entry
	for _, p := range pkgs {
		if !p.reported {
			continue
		}
		files, err := parse(fset, p)
		if err != nil {
			return err
		}
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "hbplint:ignore")
					if !ok {
						continue
					}
					e := entry{pos: fset.Position(c.Pos())}
					if fields := strings.Fields(rest); len(fields) > 0 {
						e.analyzer = fields[0]
						e.reason = strings.Join(fields[1:], " ")
					}
					out = append(out, e)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Line < out[j].pos.Line
	})
	missing := 0
	for _, e := range out {
		reason := e.reason
		if reason == "" {
			reason = "MISSING REASON"
			missing++
		}
		fmt.Fprint(stdout, shorten(dir, fmt.Sprintf("%s:%d: [%s] %s\n", e.pos.Filename, e.pos.Line, e.analyzer, reason)))
	}
	fmt.Fprintf(stdout, "%d active suppressions\n", len(out))
	if missing > 0 {
		return fmt.Errorf("%d suppression(s) missing a reason", missing)
	}
	return nil
}

// shorten makes the file names under dir in line relative to it, as
// go vet prints them, message text included.
func shorten(dir, line string) string {
	return strings.ReplaceAll(line, dir+string(filepath.Separator), "")
}
