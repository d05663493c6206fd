package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// BoundedGrowth closes the gap the state budgets (internal/bounded)
// were built for: in defense packages, inserting into a raw map under
// a key derived from attacker-controlled packet fields (Src, Mark,
// FlowID, Seq) lets a spoofing flood grow defense state without
// bound. Such state must live in an internal/bounded container (hard
// cap, deterministic eviction) or behind an explicit budget check.
//
// The check is syntactic over one expression: it flags `m[k] = v`,
// `m[k]++` and `m[k] += v` where k mentions a packet field directly.
// A key laundered through an intermediate variable is not tracked —
// keep the derivation visible at the insert, or suppress with a
// written reason.
//
// Laundering through a call IS tracked: every package except
// internal/bounded (whose whole point is budgeted keyed state) exports
// a keyedInsertFact naming the parameters a function feeds into raw map
// keys, and a defense-package call passing a packet-derived argument in
// such a position is a diagnostic.
var BoundedGrowth = &Analyzer{
	Name: "boundedgrowth",
	Doc:  "flag raw map inserts keyed by packet-derived values in defense packages; use internal/bounded",
	Run:  runBoundedGrowth,
}

// packetKeyFields are the attacker-controlled Packet fields whose
// values an adversary can vary per packet to inflate keyed state.
var packetKeyFields = map[string]bool{
	"Src":    true,
	"Mark":   true,
	"FlowID": true,
	"Seq":    true,
}

// boundedPkg reports whether path is the sanctioned keyed-state
// container package: its inserts are budgeted by construction, so it
// exports no keyedInsertFact and defense calls into it never flag.
func boundedPkg(path string) bool {
	return lastSegment(path) == "bounded"
}

func runBoundedGrowth(pass *Pass) {
	ig := newIgnores(pass, "boundedgrowth")
	defer ig.finish()
	var summaries map[*types.Func][]int
	if !schedulerPkg(pass.Pkg.Path()) && !boundedPkg(pass.Pkg.Path()) {
		summaries = exportKeyedInsertFacts(pass, ig)
	}
	if !defensePkg(pass.Pkg.Path()) {
		return
	}
	inspect(pass, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkMapInsert(pass, ig, lhs)
			}
		case *ast.IncDecStmt:
			checkMapInsert(pass, ig, n.X)
		case *ast.CallExpr:
			checkLaunderedInsert(pass, ig, summaries, n)
		}
		return true
	})
}

// exportKeyedInsertFacts computes, for every function in the package,
// the set of parameters whose values reach a raw map key — directly at
// an insert, or by being passed onward into a keyed-insert position of
// another function — exports a keyedInsertFact for each, and returns
// the summaries for same-package call-site checks. Suppressed sites do
// not contribute; closure bodies are not charged to their builder.
func exportKeyedInsertFacts(pass *Pass, ig *ignores) map[*types.Func][]int {
	ds := collectDecls(pass)
	sets := map[*types.Func]map[int]bool{}
	add := func(fn *types.Func, i int) bool {
		s := sets[fn]
		if s == nil {
			s = map[int]bool{}
			sets[fn] = s
		}
		if s[i] {
			return false
		}
		s[i] = true
		return true
	}

	// Direct inserts: m[k]... where k mentions a parameter.
	for _, fn := range ds.funcs {
		sig := fn.Type().(*types.Signature)
		ast.Inspect(ds.body[fn].Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			var targets []ast.Expr
			switch st := n.(type) {
			case *ast.AssignStmt:
				targets = st.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{st.X}
			default:
				return true
			}
			for _, lhs := range targets {
				for _, i := range insertKeyParams(pass.TypesInfo, ig, sig, lhs) {
					add(fn, i)
				}
			}
			return true
		})
	}

	// Transitive laundering: passing a parameter into a keyed-insert
	// position of a same-package function (by summary) or an imported
	// one (by fact), to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, fn := range ds.funcs {
			sig := fn.Type().(*types.Signature)
			ast.Inspect(ds.body[fn].Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if ig.suppressed(call.Pos()) {
					return true
				}
				for _, j := range calleeKeyParams(pass, sets, call) {
					if j >= len(call.Args) {
						continue
					}
					for _, i := range mentionedParams(pass.TypesInfo, sig, call.Args[j]) {
						if add(fn, i) {
							changed = true
						}
					}
				}
				return true
			})
		}
	}

	summaries := map[*types.Func][]int{}
	for _, fn := range ds.funcs {
		s := sets[fn]
		if len(s) == 0 {
			continue
		}
		params := make([]int, 0, len(s))
		for i := range s {
			params = append(params, i)
		}
		sort.Ints(params)
		summaries[fn] = params
		pass.ExportFact(fn, &keyedInsertFact{Params: params})
	}
	return summaries
}

// insertKeyParams returns the parameter indices mentioned in the key of
// a raw map insert target, or nil if lhs is not one (or is suppressed).
func insertKeyParams(info *types.Info, ig *ignores, sig *types.Signature, lhs ast.Expr) []int {
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return nil
	}
	t := info.TypeOf(idx.X)
	if t == nil {
		return nil
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return nil
	}
	if ig.suppressed(idx.Pos()) {
		return nil
	}
	return mentionedParams(info, sig, idx.Index)
}

// mentionedParams returns the indices of sig's parameters mentioned
// anywhere inside e, in source order.
func mentionedParams(info *types.Info, sig *types.Signature, e ast.Expr) []int {
	var out []int
	seen := map[int]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if i := paramIndex(sig, obj); i >= 0 && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
		return true
	})
	return out
}

// calleeKeyParams resolves a call's statically known callee to its
// keyed-insert parameter indices: same-package callees by this run's
// summaries, imported ones by fact.
func calleeKeyParams(pass *Pass, sets map[*types.Func]map[int]bool, call *ast.CallExpr) []int {
	fn := staticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if fn.Pkg() == pass.Pkg {
		s := sets[fn]
		if len(s) == 0 {
			return nil
		}
		params := make([]int, 0, len(s))
		for i := range s {
			params = append(params, i)
		}
		sort.Ints(params)
		return params
	}
	fact, ok := pass.ImportFact(fn.Origin()).(*keyedInsertFact)
	if !ok {
		return nil
	}
	return fact.Params
}

// checkLaunderedInsert flags a defense-package call that feeds a
// packet-derived argument into a keyed-insert position of its callee.
func checkLaunderedInsert(pass *Pass, ig *ignores, summaries map[*types.Func][]int, call *ast.CallExpr) {
	fn := staticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	var params []int
	if fn.Pkg() == pass.Pkg {
		params = summaries[fn]
	} else {
		fact, ok := pass.ImportFact(fn.Origin()).(*keyedInsertFact)
		if !ok {
			return
		}
		params = fact.Params
	}
	for _, j := range params {
		if j >= len(call.Args) {
			continue
		}
		if desc := packetArgDesc(pass.TypesInfo, call.Args[j]); desc != "" {
			ig.report(call.Pos(), "call to %s launders %s into a raw map key (parameter %d): attacker-controlled keys grow defense state without bound; use an internal/bounded container or an explicit budget", fn.FullName(), desc, j)
			return
		}
	}
}

// packetArgDesc describes how arg is packet-derived for the laundering
// diagnostic: a named key field, a whole packet (every key field rides
// along), or "" when the argument is attacker-independent.
func packetArgDesc(info *types.Info, arg ast.Expr) string {
	if field := packetDerivedField(info, arg); field != "" {
		return "packet field " + field
	}
	if isPacket(info.TypeOf(arg)) {
		return "a packet"
	}
	return ""
}

func checkMapInsert(pass *Pass, ig *ignores, lhs ast.Expr) {
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return
	}
	t := pass.TypesInfo.TypeOf(idx.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if field := packetDerivedField(pass.TypesInfo, idx.Index); field != "" {
		ig.report(idx.Pos(), "raw map insert keyed by packet field %s: attacker-controlled keys grow defense state without bound; use an internal/bounded container or an explicit budget", field)
	}
}

// packetDerivedField returns the name of a Packet key field mentioned
// anywhere inside e, or "" if none is.
func packetDerivedField(info *types.Info, e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if packetKeyFields[sel.Sel.Name] && isPacket(info.TypeOf(sel.X)) {
			found = sel.Sel.Name
			return false
		}
		return true
	})
	return found
}
