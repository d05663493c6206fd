package lint

import (
	"go/ast"
	"go/token"
)

// GroundTruth forbids defense code from reading the ground-truth
// packet fields reserved for evaluation. Packet.TrueSrc, Packet.Legit
// and Packet.Spoofed() exist so metrics can score a defense against
// reality; a defense that consults them is cheating, and the paper's
// results would be meaningless. Writes are fine — traffic generators
// must label the packets they create — and the metrics/experiments
// packages plus test files are allowlisted readers.
var GroundTruth = &Analyzer{
	Name: "groundtruth",
	Doc:  "forbid defense code from reading ground-truth packet fields (TrueSrc, Legit, Spoofed)",
	Run:  runGroundTruth,
}

func runGroundTruth(pass *Pass) {
	// Command/example drivers (package main) play the experiment
	// role: they label traffic and score runs. Defense code never
	// lives in a main package.
	if groundTruthAllowed(pass.Pkg.Path()) || pass.Pkg.Name() == "main" {
		return
	}
	ig := newIgnores(pass, "groundtruth")
	inspect(pass, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name != "TrueSrc" && name != "Legit" && name != "Spoofed" {
			return true
		}
		if !isPacket(pass.TypesInfo.TypeOf(sel.X)) {
			return true
		}
		if name == "Spoofed" {
			ig.report(sel.Sel.Pos(), "defense code must not call Packet.Spoofed(): ground truth is reserved for metrics")
			return true
		}
		if isWriteTarget(sel, stack) {
			return true
		}
		ig.report(sel.Sel.Pos(), "defense code must not read Packet.%s: ground truth is reserved for metrics", name)
		return true
	})
}

// isWriteTarget reports whether sel appears as the left-hand side of
// an assignment (p.TrueSrc = x), which labels a packet rather than
// reading its label. Compound assignments (+=) both read and write,
// so they do not count as pure writes.
func isWriteTarget(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	parent := stack[len(stack)-2]
	as, ok := parent.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return false
	}
	for _, lhs := range as.Lhs {
		if lhs == sel {
			return true
		}
	}
	return false
}
