package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/flow"
)

// JournalOrder enforces the journal-before-acknowledge protocol of the
// dispatch layers (internal/fleet, internal/scenario): a lifecycle
// mutation the protocol acts on — a run-state transition, an
// acknowledged cancel request — that is visible to clients or workers
// must reach the durable journal on every non-panicking path before
// the method returns. A mutation that lives only in memory evaporates
// with a coordinator crash, and replay resurrects the pre-transition
// state: a run the client was told is stopping silently re-executes,
// a dispatch the worker is already running is recovered as
// never-granted.
//
// The check is the postdominance query over the flow CFG: from each
// grant statement, every path to the normal exit must pass a barrier —
// a Sync call on a Journal or Log (the fsync of the commit path; an
// Append alone only reaches the page cache), a Record call (Append
// then Sync), or a return whose result carries an Entry (a function
// that makes the record hands the obligation to its caller, who
// commits it).
// Paths that panic are exempt; an unwinding run never completes the
// transition.
//
// A function that takes an Entry applies a record rather than deciding
// one (Coordinator.applyLocked): its caller appended the record before
// applying it and syncs before acknowledging, or is replaying a record
// already on disk, so its mutations carry no obligation of their own.
//
// Scope is deliberately narrow: methods whose receiver is the
// Coordinator or Runner — the two types that own dispatch state.
// Free recovery functions replay the journal into memory (the mirror
// image of this rule) and Worker methods mutate only their local
// outcome copy; both stay out. Requeue transitions (assigning
// StateQueued) are also exempt: returning work to the queue restores
// the state replay would reconstruct anyway, so there is nothing new
// to make durable. Mutations inside function literals are not tracked.
var JournalOrder = &Analyzer{
	Name: "journalorder",
	Doc:  "require dispatch-state mutations in Coordinator/Runner methods to be journaled on every path",
	Run:  runJournalOrder,
}

// journalServicePkg reports whether journalorder applies to path: the
// two dispatch layers that own a run journal.
func journalServicePkg(path string) bool {
	switch lastSegment(path) {
	case "fleet", "scenario":
		return true
	}
	return false
}

func runJournalOrder(pass *Pass) {
	ig := newIgnores(pass, "journalorder")
	defer ig.finish()
	if !journalServicePkg(pass.Pkg.Path()) {
		return
	}
	ds := collectDecls(pass)
	for _, fn := range ds.funcs {
		if !dispatchMethod(fn) || appliesEntry(fn) {
			continue
		}
		body := ds.body[fn].Body
		g := flow.New(body)
		barrier := func(s ast.Stmt) bool { return isJournalBarrier(pass.TypesInfo, s) }
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					what := grantKind(pass.TypesInfo, sel, rhs)
					if what == "" {
						continue
					}
					p, ok := g.PointOf(n)
					if !ok {
						continue
					}
					if g.EveryPathHits(p, barrier) {
						continue
					}
					ig.report(n.Pos(), "%s %s is not journaled on every path to return: a crash after this method acknowledges undoes the transition on replay, so the run re-executes as if it never happened; Sync the appended entry (or return it to the committing caller) before every return", what, lockLabel(sel))
				}
			}
			return true
		})
	}
}

// dispatchMethod reports whether fn is a method of the Coordinator or
// Runner type — the owners of journal-backed dispatch state.
func dispatchMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch namedTypeName(sig.Recv().Type()) {
	case "Coordinator", "Runner":
		return true
	}
	return false
}

// appliesEntry reports whether fn takes a journal Entry parameter: it
// applies a record its caller is responsible for.
func appliesEntry(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if carriesEntry(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// grantKind classifies one field assignment as a journal-obligated
// mutation, returning a description or "" for exempt shapes.
func grantKind(info *types.Info, sel *ast.SelectorExpr, rhs ast.Expr) string {
	obj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return ""
	}
	switch sel.Sel.Name {
	case "State":
		if namedTypeName(obj.Type()) != "State" {
			return ""
		}
		if isQueuedExpr(rhs) {
			return "" // requeue: replay reconstructs queued state anyway
		}
		return "run state transition"
	case "cancelReq", "CancelReq":
		if b, ok := obj.Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
			return ""
		}
		if id, ok := rhs.(*ast.Ident); ok && id.Name == "false" {
			return "" // clearing a flag grants nothing
		}
		return "acknowledged cancel request"
	}
	return ""
}

// isQueuedExpr reports whether e denotes the StateQueued constant.
func isQueuedExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "StateQueued"
	case *ast.SelectorExpr:
		return e.Sel.Name == "StateQueued"
	}
	return false
}

// isJournalBarrier reports whether s durably journals: it calls Sync or
// Record on a Journal or Log, or returns an Entry-carrying value
// (handing the obligation to the caller).
func isJournalBarrier(info *types.Info, s ast.Stmt) bool {
	if ret, ok := s.(*ast.ReturnStmt); ok {
		for _, r := range ret.Results {
			if carriesEntry(info.TypeOf(r)) {
				return true
			}
		}
	}
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			callee := staticCallee(info, n)
			if callee == nil || callee.Name() != "Sync" && callee.Name() != "Record" {
				return true
			}
			callee = callee.Origin()
			sig, ok := callee.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			switch namedTypeName(sig.Recv().Type()) {
			case "Journal", "Log":
				found = true
			}
		}
		return true
	})
	return found
}

// carriesEntry reports whether t is the journal Entry type, possibly
// behind a pointer or slice.
func carriesEntry(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		}
		break
	}
	return namedTypeName(t) == "Entry"
}

// namedTypeName returns the name of the (possibly pointed-to) named
// type, or "" for unnamed types.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
