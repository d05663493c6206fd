package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/flow"
)

// LockSafety forbids holding a mutex across a blocking operation in the
// service packages (internal/fleet, internal/scenario, internal/jsonl).
// A coordinator or runner mutex guards the dispatch tables every
// request path touches; a goroutine that parks inside the critical
// section — on an fsync, an HTTP round-trip, a channel operation, a
// sleep — stalls every Lease, Heartbeat and Record in the process. The
// house rule throughout those packages is mutate-under-lock,
// block-after-unlock; this analyzer turns the rule into a machine
// check.
//
// Blocking operations are found three ways: a seed list of known
// stdlib blockers matched by qualified name, syntactic channel
// operations (send, receive, range-over-channel; the comm cases of a
// select with a default clause poll instead of blocking and are
// exempt), and blockingFact summaries — every package exports "may
// block" facts for its functions, computed bottom-up over static
// calls, so a lock held across a call into another package is flagged
// at the call site. Lock state itself is a forward may-analysis over
// the flow CFG: a lock held on any path into a blocking statement is
// reported. A deferred Unlock releases at return, after every
// statement of the body, so it never clears the held set. Goroutine
// launches and deferred calls do not block the spawning statement and
// are skipped; dynamic calls (interface methods, stored function
// values) are not followed.
//
// Suppressed sites keep their blockingFact: an //hbplint:ignore vouches
// that holding this lock across this operation is the intended
// protocol (jsonl.Record's write-then-fsync), not that the function
// returns promptly — callers holding their own locks across it still
// get flagged.
var LockSafety = &Analyzer{
	Name: "locksafety",
	Doc:  "forbid holding a mutex across blocking operations in the service packages",
	Run:  runLockSafety,
}

// blockingSeeds maps qualified function names to the blocking
// operation they perform. The list holds the blockers the service
// packages actually reach; a new dependency that parks goroutines
// belongs here.
var blockingSeeds = map[string]string{
	"time.Sleep":              "sleeps via time.Sleep",
	"(*os.File).Sync":         "fsyncs via (*os.File).Sync",
	"(*sync.WaitGroup).Wait":  "joins goroutines via (*sync.WaitGroup).Wait",
	"(*sync.Cond).Wait":       "waits on a condition via (*sync.Cond).Wait",
	"net/http.Get":            "runs an HTTP round-trip via net/http.Get",
	"net/http.Post":           "runs an HTTP round-trip via net/http.Post",
	"net/http.PostForm":       "runs an HTTP round-trip via net/http.PostForm",
	"net/http.Head":           "runs an HTTP round-trip via net/http.Head",
	"(*net/http.Client).Do":   "runs an HTTP round-trip via (*net/http.Client).Do",
	"(*net/http.Client).Get":  "runs an HTTP round-trip via (*net/http.Client).Get",
	"(*net/http.Client).Post": "runs an HTTP round-trip via (*net/http.Client).Post",
}

// lockAcquire and lockRelease are the mutex methods the held-set
// tracks. TryLock is deliberately absent: a failed TryLock holds
// nothing, so counting it as an acquire would manufacture false
// positives.
var lockAcquire = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

var lockRelease = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

// serviceLockPkg reports whether locksafety diagnostics apply to path:
// the wall-clock service layers whose mutexes guard process-wide
// dispatch state. Other packages still export blockingFacts.
func serviceLockPkg(path string) bool {
	switch lastSegment(path) {
	case "fleet", "scenario", "jsonl":
		return true
	}
	return false
}

// schedulerPkg reports packages whose channel operations are scheduler
// machinery, not caller-observable blocking: the runtime parks on a
// channel to start GC workers inside mallocgc, so exporting
// blockingFacts from it (hbplint analyzes the standard library's
// sources for facts too) would make every allocation — every
// fmt.Sprintf, every map insert — "block". Those packages export no blockingFacts; the
// runtime-backed waits that genuinely park callers for observable time
// (time.Sleep, Cond.Wait, WaitGroup.Wait) enter through the seed list
// instead.
func schedulerPkg(path string) bool {
	return path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/")
}

// Event kinds produced by scanLockEvents.
const (
	evAcquire = iota
	evRelease
	evBlock
)

// lockEvent is one lock-relevant occurrence inside a statement, in
// position order: a mutex acquire/release (obj identifies the mutex,
// label renders it for diagnostics) or a blocking operation (desc says
// what blocks).
type lockEvent struct {
	pos   token.Pos
	kind  int
	obj   types.Object
	label string
	desc  string
}

func runLockSafety(pass *Pass) {
	ig := newIgnores(pass, "locksafety")
	defer ig.finish()
	ds := collectDecls(pass)

	// Blocking summaries: first direct blocking operation per function
	// (seeds, channel ops, imported blockingFact callees), then the
	// transitive closure over same-package static calls. Suppressions
	// do not thin the summary — see the analyzer doc.
	summaries := map[*types.Func]string{}
	if !schedulerPkg(pass.Pkg.Path()) {
		for _, fn := range ds.funcs {
			body := ds.body[fn].Body
			for _, ev := range scanLockEvents(pass, body, nonBlockingComms(body), nil) {
				if ev.kind == evBlock {
					summaries[fn] = ev.desc
					break
				}
			}
		}
		localPropagate(pass, ds, summaries, func(callee *types.Func, s string) string {
			return "calls " + callee.Name() + ", which blocks: " + s
		})
		for _, fn := range ds.funcs {
			if s, ok := summaries[fn]; ok {
				pass.ExportFact(fn, &blockingFact{Op: s})
			}
		}
	}

	if !serviceLockPkg(pass.Pkg.Path()) {
		return
	}

	// Lock regions: each declared body and each function literal is its
	// own region (a literal's locks live and die with the goroutine or
	// callback that runs it).
	for _, fn := range ds.funcs {
		body := ds.body[fn].Body
		checkLockRegion(pass, ig, body, summaries)
		ast.Inspect(body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkLockRegion(pass, ig, lit.Body, summaries)
			}
			return true
		})
	}
}

// checkLockRegion runs the held-mutex dataflow over one function body
// and reports blocking operations reached with a non-empty held set.
func checkLockRegion(pass *Pass, ig *ignores, body *ast.BlockStmt, local map[*types.Func]string) {
	g := flow.New(body)
	skip := nonBlockingComms(body)

	// Per-statement events, computed once. Statements inside nested
	// FuncLits never appear in this graph's blocks and the scanner does
	// not descend into literals, so each region owns its events.
	events := map[ast.Stmt][]lockEvent{}
	for _, blk := range g.Blocks {
		for _, s := range blk.Nodes {
			events[s] = scanLockEvents(pass, s, skip, local)
		}
	}

	apply := func(held map[types.Object]string, s ast.Stmt, report bool) map[types.Object]string {
		for _, ev := range events[s] {
			switch ev.kind {
			case evAcquire:
				held = cloneHeld(held)
				held[ev.obj] = ev.label
			case evRelease:
				if _, ok := held[ev.obj]; ok {
					held = cloneHeld(held)
					delete(held, ev.obj)
				}
			case evBlock:
				if report && len(held) > 0 {
					ig.report(ev.pos, "%s held across %s: a goroutine parked here keeps every other critical section on the lock waiting; unlock first or move the blocking operation outside", heldLabels(held), ev.desc)
				}
			}
		}
		return held
	}

	// Forward may-analysis to fixpoint: in[b] is the union of the
	// predecessors' out-states, so a lock held on any path in is held.
	in := make([]map[types.Object]string, len(g.Blocks))
	out := make([]map[types.Object]string, len(g.Blocks))
	for changed := true; changed; {
		changed = false
		for _, blk := range g.Blocks {
			i := blk.Index
			merged := map[types.Object]string{}
			for _, p := range blk.Preds {
				for o, l := range out[p.Index] {
					// On a label disagreement keep the smaller string, so
					// the merge is order-independent.
					if cur, ok := merged[o]; !ok || l < cur {
						merged[o] = l
					}
				}
			}
			if !heldEqual(in[i], merged) {
				in[i] = merged
				changed = true
			}
			cur := merged
			for _, s := range blk.Nodes {
				cur = apply(cur, s, false)
			}
			if !heldEqual(out[i], cur) {
				out[i] = cur
				changed = true
			}
		}
	}

	// Report pass over the converged states.
	for _, blk := range g.Blocks {
		cur := in[blk.Index]
		for _, s := range blk.Nodes {
			cur = apply(cur, s, true)
		}
	}

	// Range-over-channel blocks on every iteration, but its header is a
	// control statement the CFG never places in a block. Approximate
	// the held set at loop entry with the in-state of the first body
	// statement the graph placed (in-state, not mid-block state, so a
	// lock both taken and dropped inside the body does not leak in).
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Chan); !ok {
				return true
			}
			for _, s := range n.Body.List {
				p, ok := g.PointOf(s)
				if !ok {
					continue
				}
				if held := in[p.Block.Index]; len(held) > 0 {
					ig.report(n.For, "%s held across ranging over a channel: a goroutine parked here keeps every other critical section on the lock waiting; unlock first or move the blocking operation outside", heldLabels(held))
				}
				break
			}
		}
		return true
	})
}

// scanLockEvents collects the lock acquire/release and blocking events
// under root, in position order. Function literals, goroutine launches
// and deferred statements are skipped: a literal blocks its own caller,
// a go statement never blocks the spawner, and a deferred unlock holds
// to return (a deferred blocking call runs after the body, outside any
// explicitly released critical section). skip holds the comm statements
// of select-with-default polls. local supplies same-package blocking
// summaries; pass it nil while those summaries are still being built.
func scanLockEvents(pass *Pass, root ast.Node, skip map[ast.Stmt]bool, local map[*types.Func]string) []lockEvent {
	var evs []lockEvent
	add := func(pos token.Pos, kind int, obj types.Object, label, desc string) {
		evs = append(evs, lockEvent{pos: pos, kind: kind, obj: obj, label: label, desc: desc})
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok && skip[s] {
			return false // comm of a select with default: a poll, not a park
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			add(n.Arrow, evBlock, nil, "", "a channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(n.Pos(), evBlock, nil, "", "a channel receive")
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					add(n.For, evBlock, nil, "", "ranging over a channel")
				}
			}
		case *ast.CallExpr:
			callee := staticCallee(pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			// Instantiated generic methods (jsonl.Log[Entry].Record)
			// resolve to their origin, where the fact lives.
			callee = callee.Origin()
			full := callee.FullName()
			if lockAcquire[full] || lockRelease[full] {
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if obj, label := lockIdentity(pass.TypesInfo, sel.X); obj != nil {
						kind := evRelease
						if lockAcquire[full] {
							kind = evAcquire
						}
						add(n.Pos(), kind, obj, label, "")
					}
				}
				return true
			}
			if desc, ok := blockingSeeds[full]; ok {
				add(n.Pos(), evBlock, nil, "", desc)
			} else if callee.Pkg() == pass.Pkg {
				if s, ok := local[callee]; ok {
					add(n.Pos(), evBlock, nil, "", "a call to "+callee.Name()+", which blocks: "+s)
				}
			} else if callee.Pkg() != nil {
				if fact, ok := pass.ImportFact(callee).(*blockingFact); ok {
					add(n.Pos(), evBlock, nil, "", "a call to "+full+", which blocks: "+fact.Op)
				}
			}
		}
		return true
	})
	sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// nonBlockingComms marks the communication statements of every select
// that has a default clause under root: such a select polls instead of
// parking, so its comm operations are not blocking events.
func nonBlockingComms(root ast.Node) map[ast.Stmt]bool {
	skip := map[ast.Stmt]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					skip[cc.Comm] = true
				}
			}
		}
		return true
	})
	return skip
}

// lockIdentity resolves the mutex a Lock/Unlock receiver expression
// names: the field or variable object (so l.mu across methods is one
// lock; two instances of the same struct conservatively merge) and a
// printable label.
func lockIdentity(info *types.Info, e ast.Expr) (types.Object, string) {
	label := lockLabel(e)
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		}
		break
	}
	switch x := e.(type) {
	case *ast.Ident:
		return info.Uses[x], label
	case *ast.SelectorExpr:
		return info.Uses[x.Sel], label
	}
	return nil, label
}

// lockLabel renders a mutex expression for diagnostics.
func lockLabel(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return lockLabel(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return lockLabel(e.X)
	case *ast.StarExpr:
		return lockLabel(e.X)
	}
	return "the lock"
}

func cloneHeld(held map[types.Object]string) map[types.Object]string {
	out := make(map[types.Object]string, len(held))
	for o, l := range held {
		out[o] = l
	}
	return out
}

func heldEqual(a, b map[types.Object]string) bool {
	if len(a) != len(b) {
		return false
	}
	for o, l := range a {
		if bl, ok := b[o]; !ok || bl != l {
			return false
		}
	}
	return true
}

// heldLabels joins the held-lock labels in sorted order.
func heldLabels(held map[types.Object]string) string {
	labels := make([]string, 0, len(held))
	for _, l := range held {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return strings.Join(labels, ", ")
}
