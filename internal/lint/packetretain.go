package lint

import (
	"go/ast"
	"go/types"
)

// PacketRetain turns the pooled-packet ownership rule into a
// compile-time error. A *netsim.Packet handed to a Handler or
// ForwardHook belongs to the network: it returns to the packet pool
// the moment the callback returns, so any reference that survives the
// callback is a use-after-free waiting for the pool to recycle it.
// The runtime `freed` panic only fires on exercised paths; this
// analyzer flags every path.
//
// Within any function that takes a *netsim.Packet parameter (handler,
// hook, or helper called from one — outside package netsim itself,
// which owns the pool), the analyzer flags:
//
//   - storing the packet, or its Payload, into a struct field, map,
//     slice element or channel;
//   - assigning it to a variable declared outside the callback (a
//     closure's captured variable, a package-level variable);
//   - appending it to a slice;
//   - capturing it in a function literal that escapes the callback
//     (passed to a scheduler, assigned, returned).
//
// Values that went through netsim's Network.ClonePacket are owned
// copies and are safe to retain; a call is trusted by its resolved
// callee, not by its name. Copying fields (p.Src, *pp) is
// always safe.
var PacketRetain = &Analyzer{
	Name: "packetretain",
	Doc:  "forbid retaining a pooled *netsim.Packet (or its Payload) past a handler/hook callback without ClonePacket",
	Run:  runPacketRetain,
}

func runPacketRetain(pass *Pass) {
	if netsimPkg(pass.Pkg.Path()) {
		return
	}
	ig := newIgnores(pass, "packetretain")
	inspect(pass, func(n ast.Node, _ []ast.Node) bool {
		var ftype *ast.FuncType
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			ftype, body = n.Type, n.Body
		case *ast.FuncLit:
			// Nested literals inside an already-checked handler are
			// handled by the closure-escape rule of the outer walk;
			// still check literals that themselves take a packet.
			ftype, body = n.Type, n.Body
		}
		if body == nil {
			return true
		}
		unsafe := packetParams(pass.TypesInfo, ftype)
		if len(unsafe) == 0 {
			return true
		}
		checkRetention(pass, ig, n, body, unsafe)
		return true
	})
}

// packetParams collects the parameter objects of type *netsim.Packet.
func packetParams(info *types.Info, ftype *ast.FuncType) map[types.Object]bool {
	out := map[types.Object]bool{}
	if ftype == nil || ftype.Params == nil {
		return out
	}
	for _, f := range ftype.Params.List {
		for _, name := range f.Names {
			if obj := info.ObjectOf(name); obj != nil && isPacketPtr(obj.Type()) {
				out[obj] = true
			}
		}
	}
	return out
}

// checkRetention walks the body of one packet-handling function fn,
// tracking aliases of the borrowed packet parameters, and reports
// stores that outlive the callback.
func checkRetention(pass *Pass, ig *ignores, fn ast.Node, body *ast.BlockStmt, unsafe map[types.Object]bool) {
	info := pass.TypesInfo
	// outer reports whether id names a variable declared outside fn,
	// which outlives the callback.
	outer := func(id *ast.Ident) bool {
		v, ok := info.ObjectOf(id).(*types.Var)
		return ok && (v.Pos() < fn.Pos() || v.Pos() >= fn.End())
	}

	// First pass: propagate the borrowed set through direct aliases
	// (q := p). A single forward pass
	// is enough for the simulator's straight-line handler code.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.ObjectOf(id)
			if obj == nil || !isPacketPtr(obj.Type()) {
				continue
			}
			if rid, ok := as.Rhs[i].(*ast.Ident); ok && unsafe[info.ObjectOf(rid)] {
				unsafe[obj] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				switch lhs := lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					if expr, what := borrowedIn(info, n.Rhs[i], unsafe); expr != nil {
						ig.report(expr.Pos(), "%s stored past the handler callback: the packet returns to the pool when the callback ends; ClonePacket it or copy the fields", what)
					}
				case *ast.Ident:
					// x = append(x, p) is the append rule's finding.
					if !outer(lhs) || isAppendCall(info, n.Rhs[i]) {
						break
					}
					if expr, what := borrowedIn(info, n.Rhs[i], unsafe); expr != nil {
						ig.report(expr.Pos(), "%s assigned to a variable declared outside the handler callback: the packet returns to the pool when the callback ends; keep a copy (c := *p) or ClonePacket it", what)
					}
				}
			}
		case *ast.SendStmt:
			if expr, what := borrowedIn(info, n.Value, unsafe); expr != nil {
				ig.report(expr.Pos(), "%s sent on a channel from a handler callback: the packet returns to the pool when the callback ends; ClonePacket it first", what)
			}
		case *ast.CallExpr:
			if isAppendCall(info, n) {
				for _, a := range n.Args[1:] {
					if expr, what := borrowedIn(info, a, unsafe); expr != nil {
						ig.report(expr.Pos(), "%s appended to a slice from a handler callback: the packet returns to the pool when the callback ends; ClonePacket it first", what)
					}
				}
				return true
			}
			// A function literal capturing the packet, passed to a
			// call (timer, scheduler, ...), escapes the callback.
			for _, a := range n.Args {
				if lit, ok := a.(*ast.FuncLit); ok {
					if expr, what := capturedBorrowed(info, lit, unsafe); expr != nil {
						ig.report(expr.Pos(), "%s captured by a function literal that escapes the handler callback; ClonePacket it or copy the fields before scheduling", what)
					}
				}
			}
		}
		return true
	})
}

// borrowedIn returns the first expression within e that evaluates to
// a borrowed packet (or its Payload) being retained by value-identity,
// plus a short description. Field reads (p.Src) and dereference
// copies (*p, *m) do not retain and are skipped.
func borrowedIn(info *types.Info, e ast.Expr, unsafe map[types.Object]bool) (ast.Expr, string) {
	// ClonePacket produces owned packets.
	if call, ok := e.(*ast.CallExpr); ok {
		if isClonePacket(info, call) {
			return nil, ""
		}
	}
	var found ast.Expr
	what := ""
	var walk func(n ast.Expr, deref bool)
	walk = func(n ast.Expr, deref bool) {
		if found != nil || n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.Ident:
			if !deref && unsafe[info.ObjectOf(n)] {
				found, what = n, "borrowed *netsim.Packet"
			}
		case *ast.StarExpr:
			walk(n.X, true) // *p copies; the pointer does not survive
		case *ast.UnaryExpr:
			walk(n.X, deref)
		case *ast.SelectorExpr:
			if n.Sel.Name == "Payload" && isPacket(info.TypeOf(n.X)) {
				if expr, _ := borrowedRecv(info, n.X, unsafe); expr != nil && !deref {
					found, what = n, "Payload of a borrowed packet"
				}
				return
			}
			// Any other selector reads a field — a copy, safe.
		case *ast.TypeAssertExpr:
			// p.Payload.(*Message) retains the payload pointer.
			walk(n.X, deref)
		case *ast.CallExpr:
			if isClonePacket(info, n) {
				return
			}
			for _, a := range n.Args {
				walk(a, deref)
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					walk(kv.Value, deref)
				} else {
					walk(el, deref)
				}
			}
		case *ast.ParenExpr:
			walk(n.X, deref)
		case *ast.BinaryExpr:
			walk(n.X, deref)
			walk(n.Y, deref)
		case *ast.IndexExpr:
			walk(n.X, deref)
			walk(n.Index, deref)
		}
	}
	walk(e, false)
	return found, what
}

// borrowedRecv reports whether the receiver expression is a borrowed
// packet identifier.
func borrowedRecv(info *types.Info, e ast.Expr, unsafe map[types.Object]bool) (ast.Expr, string) {
	if id, ok := e.(*ast.Ident); ok && unsafe[info.ObjectOf(id)] {
		return id, "borrowed *netsim.Packet"
	}
	return nil, ""
}

// capturedBorrowed returns a reference to a borrowed packet from
// inside a function literal, if any.
func capturedBorrowed(info *types.Info, lit *ast.FuncLit, unsafe map[types.Object]bool) (ast.Expr, string) {
	var found ast.Expr
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && unsafe[info.ObjectOf(id)] {
			found = id
			return false
		}
		return true
	})
	if found != nil {
		return found, "borrowed *netsim.Packet"
	}
	return nil, ""
}

// isAppendCall reports whether e is a call of the append builtin.
func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// isClonePacket reports whether call invokes netsim's
// (*Network).ClonePacket — the sanctioned way to keep a packet.
func isClonePacket(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil || fn.Name() != "ClonePacket" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && isNetsimNamed(recv.Type(), "Network")
}
