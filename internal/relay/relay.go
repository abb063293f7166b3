// Package relay reimplements the RELAY static data-race detector
// [Voung, Jhala, Lerner, FSE 2007] that Chimera uses to find all potential
// data-races (paper §3).
//
// RELAY is a lockset-based, bottom-up, summary-driven analysis:
//
//   - For every function it computes a summary: the set of shared-memory
//     accesses the function (and its callees) may perform, each with a
//     *relative lockset* — the locks acquired (L+) and released (L-)
//     relative to function entry at the access point.
//   - Summaries compose bottom-up over the call graph: a callee's accesses
//     are translated into the caller's naming (parameters substituted by
//     actual arguments) and extended with the caller's lockset.
//   - Two accesses race if they may be performed by different threads, may
//     touch the same shared object (same Steensgaard alias class), at
//     least one is a write, and their locksets share no common lock.
//
// The analysis is sound in the same sense as RELAY (modulo the paper's §3.2
// corner cases, which do not arise in MiniC: there is no inline assembly,
// and pointer arithmetic is assumed to stay in the object by the points-to
// layer). It is deliberately imprecise in the same ways too: the core
// detector ignores happens-before from fork/join, barriers and condition
// variables, and it inherits the points-to collapses — both are the sources
// of false positives Chimera's optimizations target (paper §3.3). The
// fork/join and barrier portion of that imprecision can optionally be
// recovered statically after the fact: Report.RefineMHP applies a
// may-happen-in-parallel verdict (supplied by internal/mhp) that discharges
// pairs proven non-concurrent, leaving condition-variable ordering and the
// points-to collapses as the remaining over-approximation.
package relay

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/callgraph"
	"repro/internal/minic/ast"
	"repro/internal/minic/token"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
)

// Access is one static shared-memory access with its absolute lockset,
// materialized at a thread root.
type Access struct {
	// Fn is the function lexically containing the access.
	Fn *types.FuncInfo

	// Node is the lvalue expression node; Stmt is the innermost simple
	// statement containing it (the instrumentation anchor).
	Node ast.NodeID
	Stmt ast.NodeID

	Write bool

	// Objs are the abstract objects the access may touch.
	Objs []pointsto.ObjID

	// Lockset holds the resolved lock representatives held at the access.
	Lockset []string

	Pos token.Pos
}

// RacePair is a potential data race between two static accesses
// (paper §2.1: "a race-pair is a pair of static memory instructions that
// are racy").
type RacePair struct {
	A, B *Access

	// RootA and RootB are thread entry points that can reach the two
	// accesses concurrently.
	RootA, RootB *types.FuncInfo
}

// FnPair returns the racy-function-pair, alphabetically ordered.
func (rp *RacePair) FnPair() [2]string {
	a, b := rp.A.Fn.Name, rp.B.Fn.Name
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Key returns a canonical identifier for deduplication.
func (rp *RacePair) Key() [2]ast.NodeID {
	a, b := rp.A.Node, rp.B.Node
	if a > b {
		a, b = b, a
	}
	return [2]ast.NodeID{a, b}
}

// Report is the full race-detection result.
type Report struct {
	Info *types.Info
	PTA  *pointsto.Analysis
	CG   *callgraph.Graph

	// Pairs are the deduplicated potential race pairs.
	Pairs []*RacePair

	// RacyNodes maps every racy lvalue node to its accesses.
	RacyNodes map[ast.NodeID]*Access

	// RacyFuncs is the set of functions containing at least one racy
	// access.
	RacyFuncs map[*types.FuncInfo]bool

	// FuncPairs maps racy-function-pairs to their race pairs.
	FuncPairs map[[2]string][]*RacePair

	// Pruned holds the pairs a refinement pass (RefineMHP) discharged,
	// with provenance. Empty on an unrefined report.
	Pruned []PrunedPair

	// Summaries, for inspection and tests.
	Summaries map[*types.FuncInfo]*Summary
}

// RacyPartners returns, for a racy node, the set of nodes it races with.
func (r *Report) RacyPartners(n ast.NodeID) []ast.NodeID {
	seen := make(map[ast.NodeID]bool)
	var out []ast.NodeID
	for _, p := range r.Pairs {
		var other ast.NodeID = -1
		if p.A.Node == n {
			other = p.B.Node
		} else if p.B.Node == n {
			other = p.A.Node
		}
		if other >= 0 && !seen[other] {
			seen[other] = true
			out = append(out, other)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------------
// Summaries

// summaryAccess is an access inside a function summary, with its relative
// lockset (plus = acquired since entry and still held; minus = released
// since entry).
type summaryAccess struct {
	fn    *types.FuncInfo
	node  ast.NodeID
	stmt  ast.NodeID
	write bool
	objs  []pointsto.ObjID
	plus  []string
	minus []string
	pos   token.Pos
}

// Summary is a RELAY function summary: the guarded accesses and the net
// lock effect (paper §3.1: "a summary of the set of shared objects accessed
// in the function and the lockset held during each of its accesses", plus
// the effect on the caller's lockset).
type Summary struct {
	Fn *types.FuncInfo

	Accesses []*summaryAccess

	// NetPlus are locks held at every return that were acquired locally;
	// NetMinus are locks possibly released relative to entry.
	NetPlus  []string
	NetMinus []string

	// accessKeys dedups accesses by (node, lockset signature).
	accessKeys map[string]bool
}

// AccessCount reports the number of summarized accesses (for tests).
func (s *Summary) AccessCount() int { return len(s.Accesses) }

type analyzer struct {
	info      *types.Info
	pta       *pointsto.Analysis
	cg        *callgraph.Graph
	summaries map[*types.FuncInfo]*Summary

	// sccFault, when non-nil, is invoked before each SCC's fixpoint in the
	// summary walk; a non-nil return aborts the analysis. Test-only: it
	// exists to exercise mid-wave error cancellation.
	sccFault func(scc int) error
}

const maxSummaryAccesses = 200000

// lockstate is the per-program-point relative lockset.
type lockstate struct {
	plus  map[string]bool
	minus map[string]bool
}

func newLockstate() *lockstate {
	return &lockstate{plus: make(map[string]bool), minus: make(map[string]bool)}
}

func (ls *lockstate) clone() *lockstate {
	n := newLockstate()
	for k := range ls.plus {
		n.plus[k] = true
	}
	for k := range ls.minus {
		n.minus[k] = true
	}
	return n
}

func (ls *lockstate) acquire(rep string) {
	ls.plus[rep] = true
	delete(ls.minus, rep)
}

func (ls *lockstate) release(rep string) {
	if ls.plus[rep] {
		delete(ls.plus, rep)
		return
	}
	ls.minus[rep] = true
}

// releaseUnknown models an unresolvable unlock: every held lock may have
// been released (sound for a must-hold analysis).
func (ls *lockstate) releaseUnknown() {
	for k := range ls.plus {
		delete(ls.plus, k)
		ls.minus[k] = true
	}
}

// meet intersects plus (must-hold) and unions minus (may-released).
func (ls *lockstate) meet(other *lockstate) {
	for k := range ls.plus {
		if !other.plus[k] {
			delete(ls.plus, k)
		}
	}
	for k := range other.minus {
		ls.minus[k] = true
	}
}

func (ls *lockstate) equal(other *lockstate) bool {
	if len(ls.plus) != len(other.plus) || len(ls.minus) != len(other.minus) {
		return false
	}
	for k := range ls.plus {
		if !other.plus[k] {
			return false
		}
	}
	for k := range ls.minus {
		if !other.minus[k] {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// analyzeFunc (re)computes fn's summary; reports whether it changed.
func (rl *analyzer) analyzeFunc(fn *types.FuncInfo) bool {
	sum := rl.summaries[fn]
	before := len(sum.Accesses)
	beforeNet := strings.Join(sum.NetPlus, ",") + "|" + strings.Join(sum.NetMinus, ",")

	w := &funcWalker{rl: rl, fn: fn, sum: sum}
	ls := newLockstate()
	out := w.walkBlock(fn.Decl.Body, ls)

	// Net effect: meet of all return states (including fallthrough).
	final := out
	for _, r := range w.returns {
		if final == nil {
			final = r
		} else {
			final.meet(r)
		}
	}
	if final == nil {
		final = newLockstate()
	}
	sum.NetPlus = sortedKeys(final.plus)
	sum.NetMinus = sortedKeys(final.minus)

	afterNet := strings.Join(sum.NetPlus, ",") + "|" + strings.Join(sum.NetMinus, ",")
	return len(sum.Accesses) != before || beforeNet != afterNet
}

type funcWalker struct {
	rl      *analyzer
	fn      *types.FuncInfo
	sum     *Summary
	returns []*lockstate
}

// walkBlock analyzes a block; returns the fall-through lockstate or nil if
// control cannot fall through (the block always returns/breaks).
func (w *funcWalker) walkBlock(b *ast.Block, ls *lockstate) *lockstate {
	cur := ls
	for _, s := range b.Stmts {
		if cur == nil {
			cur = newLockstate() // unreachable; analyze anyway
		}
		cur = w.walkStmt(s, cur)
	}
	return cur
}

func (w *funcWalker) walkStmt(s ast.Stmt, ls *lockstate) *lockstate {
	switch s := s.(type) {
	case *ast.Block:
		return w.walkBlock(s, ls)

	case *ast.DeclStmt:
		if s.Decl.Init != nil {
			w.expr(s.Decl.Init, s.ID(), ls, false)
		}
		return ls

	case *ast.AssignStmt:
		// The RHS and the lvalue's address subexpressions are reads; the
		// lvalue itself is a write (and also a read for compound ops).
		w.expr(s.RHS, s.ID(), ls, false)
		w.lvalue(s.LHS, s.ID(), ls, s.Op != token.ASSIGN)
		return ls

	case *ast.IncDecStmt:
		w.lvalue(s.X, s.ID(), ls, true)
		return ls

	case *ast.ExprStmt:
		return w.exprStmt(s.X, s.ID(), ls)

	case *ast.IfStmt:
		w.expr(s.CondE, s.ID(), ls, false)
		thenLS := ls.clone()
		thenOut := w.walkBlock(s.Then, thenLS)
		var elseOut *lockstate
		if s.Else != nil {
			elseLS := ls.clone()
			elseOut = w.walkStmt(s.Else, elseLS)
		} else {
			elseOut = ls.clone()
		}
		switch {
		case thenOut == nil && elseOut == nil:
			return nil
		case thenOut == nil:
			return elseOut
		case elseOut == nil:
			return thenOut
		default:
			thenOut.meet(elseOut)
			return thenOut
		}

	case *ast.WhileStmt:
		return w.walkLoop(nil, s.CondE, nil, s.Body, s.ID(), ls)

	case *ast.ForStmt:
		return w.walkLoop(s.Init, s.CondE, s.Post, s.Body, s.ID(), ls)

	case *ast.ReturnStmt:
		if s.X != nil {
			w.expr(s.X, s.ID(), ls, false)
		}
		w.returns = append(w.returns, ls.clone())
		return nil

	case *ast.BreakStmt, *ast.ContinueStmt:
		// Conservative: treat as falling through for lockset purposes.
		// (Structured loops make the meet below safe.)
		return ls
	}
	return ls
}

// walkLoop analyzes a loop to a lockstate fixpoint; accesses are recorded
// only on the final iteration so their locksets are stable.
func (w *funcWalker) walkLoop(init ast.Stmt, cond ast.Expr, post ast.Stmt, body *ast.Block, stmtID ast.NodeID, ls *lockstate) *lockstate {
	if init != nil {
		ls = w.walkStmt(init, ls)
	}
	entry := ls.clone()
	// Fixpoint on the loop-entry lockstate, without recording accesses.
	for i := 0; i < 6; i++ {
		probe := &funcWalker{rl: w.rl, fn: w.fn, sum: &Summary{Fn: w.fn, accessKeys: make(map[string]bool)}}
		st := entry.clone()
		if cond != nil {
			probe.expr(cond, stmtID, st, false)
		}
		out := probe.walkBlock(body, st)
		if out != nil && post != nil {
			out = probe.walkStmt(post, out)
		}
		next := entry.clone()
		if out != nil {
			next.meet(out)
		}
		if next.equal(entry) {
			break
		}
		entry = next
	}
	// Final recording pass with the stable entry state.
	st := entry.clone()
	if cond != nil {
		w.expr(cond, stmtID, st, false)
	}
	out := w.walkBlock(body, st)
	if out != nil && post != nil {
		out = w.walkStmt(post, out)
	}
	// The loop may execute zero times.
	res := entry.clone()
	if out != nil {
		res.meet(out)
	}
	return res
}

// exprStmt handles statement-level expressions; calls get special handling
// for sync builtins and summary composition.
func (w *funcWalker) exprStmt(e ast.Expr, stmt ast.NodeID, ls *lockstate) *lockstate {
	w.expr(e, stmt, ls, false)
	return ls
}

// expr records the reads performed when evaluating e and handles calls.
func (w *funcWalker) expr(e ast.Expr, stmt ast.NodeID, ls *lockstate, _ bool) {
	switch e := e.(type) {
	case *ast.IntLit, *ast.StringLit, *ast.Sizeof:

	case *ast.Ident:
		w.record(e, stmt, false, ls)

	case *ast.Unary:
		if e.Op == token.AMP {
			// Address computation: the base pointer reads inside still
			// happen (e.g. &p->f reads p), but the outer lvalue is not
			// loaded.
			w.addrReads(e.X, stmt, ls)
			return
		}
		if e.Op == token.STAR {
			w.expr(e.X, stmt, ls, false)
			w.record(e, stmt, false, ls)
			return
		}
		w.expr(e.X, stmt, ls, false)

	case *ast.Binary:
		w.expr(e.X, stmt, ls, false)
		w.expr(e.Y, stmt, ls, false)

	case *ast.Cond:
		w.expr(e.CondE, stmt, ls, false)
		w.expr(e.Then, stmt, ls, false)
		w.expr(e.Else, stmt, ls, false)

	case *ast.Index:
		w.addrReads(e, stmt, ls)
		w.record(e, stmt, false, ls)

	case *ast.Field:
		w.addrReads(e, stmt, ls)
		w.record(e, stmt, false, ls)

	case *ast.Call:
		w.call(e, stmt, ls)
	}
}

// addrReads records the reads performed while computing an lvalue address
// (but not the load of the lvalue itself): pointer bases are loaded, while
// taking the address of a variable or array element reads nothing extra.
func (w *funcWalker) addrReads(e ast.Expr, stmt ast.NodeID, ls *lockstate) {
	switch e := e.(type) {
	case *ast.Ident:
		// &x and array decay compute a constant address: no load.
	case *ast.Unary:
		if e.Op == token.STAR {
			w.expr(e.X, stmt, ls, false)
			return
		}
		w.expr(e, stmt, ls, false)
	case *ast.Index:
		// Array base: address computation; pointer base: the pointer
		// value is loaded.
		if t := w.rl.info.Types[e.X.ID()]; t != nil && t.Kind == types.Array {
			w.addrReads(e.X, stmt, ls)
		} else {
			w.expr(e.X, stmt, ls, false)
		}
		w.expr(e.Index, stmt, ls, false)
	case *ast.Field:
		if e.Arrow {
			w.expr(e.X, stmt, ls, false)
		} else {
			w.addrReads(e.X, stmt, ls)
		}
	default:
		w.expr(e, stmt, ls, false)
	}
}

// lvalue records a write access (plus the reads of its address
// computation; alsoRead marks compound assignments).
func (w *funcWalker) lvalue(e ast.Expr, stmt ast.NodeID, ls *lockstate, alsoRead bool) {
	switch e := e.(type) {
	case *ast.Ident:
		w.recordW(e, stmt, ls, alsoRead)
	case *ast.Unary:
		if e.Op == token.STAR {
			w.expr(e.X, stmt, ls, false)
			w.recordW(e, stmt, ls, alsoRead)
		}
	case *ast.Index:
		w.addrReads(e, stmt, ls)
		w.recordW(e, stmt, ls, alsoRead)
	case *ast.Field:
		w.addrReads(e, stmt, ls)
		w.recordW(e, stmt, ls, alsoRead)
	}
}

func (w *funcWalker) recordW(e ast.Expr, stmt ast.NodeID, ls *lockstate, alsoRead bool) {
	w.record(e, stmt, true, ls)
	if alsoRead {
		w.record(e, stmt, false, ls)
	}
}

// record adds an access to the summary if it touches trackable objects.
func (w *funcWalker) record(e ast.Expr, stmt ast.NodeID, write bool, ls *lockstate) {
	objs := w.rl.accessObjects(e)
	if len(objs) == 0 {
		return
	}
	w.addAccess(&summaryAccess{
		fn:    w.fn,
		node:  e.ID(),
		stmt:  stmt,
		write: write,
		objs:  objs,
		plus:  sortedKeys(ls.plus),
		minus: sortedKeys(ls.minus),
		pos:   e.Pos(),
	})
}

func (w *funcWalker) addAccess(a *summaryAccess) {
	if len(w.sum.Accesses) >= maxSummaryAccesses {
		return
	}
	key := fmt.Sprintf("%d|%v|%s|%s", a.node, a.write,
		strings.Join(a.plus, ","), strings.Join(a.minus, ","))
	if w.sum.accessKeys[key] {
		return
	}
	w.sum.accessKeys[key] = true
	w.sum.Accesses = append(w.sum.Accesses, a)
}

// accessObjects returns the abstract objects for an lvalue access,
// filtering out pure (non-escaping, non-address-taken) scalar locals early
// to keep summaries small; escaping locals stay and are handled by the
// escape filter at pair time.
func (rl *analyzer) accessObjects(e ast.Expr) []pointsto.ObjID {
	if id, ok := e.(*ast.Ident); ok {
		o := rl.info.Uses[id.ID()]
		if o == nil {
			return nil
		}
		switch o.Kind {
		case types.ObjLocal, types.ObjParam:
			if !o.AddrTaken {
				return nil // pure local: cannot be shared
			}
		case types.ObjFunc, types.ObjBuiltin:
			return nil
		}
		if oid, ok := rl.pta.VarObjID(o); ok {
			return []pointsto.ObjID{oid}
		}
		return nil
	}
	return rl.pta.ObjectsOf(e.ID())
}
