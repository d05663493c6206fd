package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// ignorePrefix is the suppression directive. Full form:
//
//	//hbplint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line immediately above it.
const ignorePrefix = "hbplint:ignore"

// directive is one parsed //hbplint:ignore comment.
type directive struct {
	analyzer string
	reason   string
	pos      token.Pos
	testFile bool
	// used records whether any diagnostic was actually suppressed by
	// this directive; the stale-ignore audit reports unused ones.
	used bool
}

// ignores indexes the suppression directives of one package for one
// analyzer, so reporting helpers can consult them cheaply.
type ignores struct {
	pass *Pass
	name string
	// byLine maps file -> line -> directive for this analyzer.
	byLine map[*token.File]map[int]*directive
}

// newIgnores scans the package's comments for //hbplint:ignore
// directives naming the given analyzer. Directives without a reason
// are reported immediately: an unexplained suppression is itself a
// defect — the whole point of the directive is the written reason.
func newIgnores(pass *Pass, name string) *ignores {
	ig := &ignores{pass: pass, name: name, byLine: map[*token.File]map[int]*directive{}}
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, ignorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 || fields[0] != name {
					continue
				}
				d := &directive{
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
					pos:      c.Pos(),
					testFile: isTestFile(pass, f),
				}
				if d.reason == "" {
					pass.Reportf(c.Pos(), "hbplint:ignore %s directive is missing a reason; write why the suppression is safe", name)
				}
				m := ig.byLine[tf]
				if m == nil {
					m = map[int]*directive{}
					ig.byLine[tf] = m
				}
				m[tf.Line(c.Pos())] = d
			}
		}
	}
	return ig
}

// suppressed reports whether a diagnostic at pos is covered by a
// directive on the same line or the line above, and marks the covering
// directive as used for the stale audit.
func (ig *ignores) suppressed(pos token.Pos) bool {
	tf := ig.pass.Fset.File(pos)
	if tf == nil {
		return false
	}
	m := ig.byLine[tf]
	if m == nil {
		return false
	}
	line := tf.Line(pos)
	if d, ok := m[line]; ok {
		d.used = true
		return true
	}
	if d, ok := m[line-1]; ok {
		d.used = true
		return true
	}
	return false
}

// report emits a diagnostic unless a matching ignore directive covers
// pos. Reasonless directives still suppress the underlying finding —
// the missing-reason diagnostic issued at scan time keeps the run red.
func (ig *ignores) report(pos token.Pos, format string, args ...any) {
	if ig.suppressed(pos) {
		return
	}
	ig.pass.Reportf(pos, format, args...)
}

// finish runs the stale-suppression audit: with Checker.Stale set
// (hbplint -stale), every directive that suppressed nothing in this run
// becomes a diagnostic. A suppression whose flagged line no longer
// triggers the analyzer is dead weight that silently licenses future
// violations on that line, so CI runs one audit pass with -stale.
// Directives in test files are exempt (the analyzers skip test files,
// so nothing there can ever be suppressed). An analyzer that audits
// calls finish after its last report, including on packages it does
// not apply to — a suppression in an exempt package is stale by
// definition. groundtruth and packetretain do not audit.
func (ig *ignores) finish() {
	if !ig.pass.checker.Stale {
		return
	}
	var stale []*directive
	for _, m := range ig.byLine {
		for _, d := range m {
			if !d.used && !d.testFile {
				stale = append(stale, d)
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].pos < stale[j].pos })
	for _, d := range stale {
		ig.pass.Reportf(d.pos, "stale hbplint:ignore %s: this line no longer triggers the analyzer; delete the directive", ig.name)
	}
}

// isTestFile reports whether the file containing pos is a _test.go
// file. Test files exercise invariants deliberately (they hold the
// ground-truth assertions, retain packets to probe the pool, and so
// on), so the analyzers skip them.
func isTestFile(pass *Pass, file *ast.File) bool {
	tf := pass.Fset.File(file.Pos())
	return tf != nil && strings.HasSuffix(tf.Name(), "_test.go")
}
