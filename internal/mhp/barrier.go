package mhp

import (
	"repro/internal/minic/ast"
	"repro/internal/minic/token"
	"repro/internal/minic/types"
	"repro/internal/relay"
)

// Barrier-phase segmentation.
//
// A barrier with count C aligns its C waiters: no waiter starts episode
// g+1 before every waiter finishes episode g. If every instance of a
// thread root executes the same sequence of barrier_wait calls — because
// the waits sit either bare at the body top level or inside loops whose
// trip counts are uniform across instances — then the number of completed
// episodes at any program point is a function of the point alone, and two
// points whose episode counts can never be equal can never run
// concurrently (the Aiken/Gay barrier-inference discipline, as revived by
// RacerF's lightweight MHP phase).
//
// The proof obligations, all of which fail closed:
//
//  1. The barrier variable is a global whose every use is the literal
//     argument &b of barrier_init/barrier_wait; any barrier call whose
//     argument is not of that form disables the analysis entirely (it
//     could alias anything).
//  2. It is initialized exactly once, by a top-level statement of main
//     that precedes every spawn of every waiter.
//  3. Every wait on it is inside a thread root (never main, never a
//     shared helper) that is entered only through spawn edges — a root
//     that is also called as a plain function (from main, a helper, or
//     itself) would execute waits no instance bound counts — and every
//     such root is spawned only from main with at most C instances:
//     either at most C non-loop spawn sites with a literal C, or a
//     single spawn site inside one counted loop whose bound prints
//     identically to C and is frozen. Fewer instances than C merely
//     deadlock at the first wait — the episode count then never
//     advances, which is safe; more instances would break alignment, so
//     they must be excluded.
//  4. With several waiter roots, their fork/join windows must be pairwise
//     disjoint (proven via the fork/join analysis), so each root's
//     episodes are counted in isolation.
//  5. Within a root's body, waits appear only as bare top-level
//     statements or bare top-level statements of uniform-trip for loops;
//     a wait under an if, a while, a nested loop, or a callee fails the
//     root.
//
// Positions are either "outside, between unit u-1 and unit u" or "inside
// loop unit u, segment j of k" (segment k is the tail that wraps to the
// next iteration). Two positions are provably non-concurrent when their
// episode-count sets cannot intersect; the algebra is in disjoint().

type barrierAnalysis struct {
	rep      *relay.Report
	fj       *forkJoin
	barriers []*barrierInfo
}

type barrierInfo struct {
	obj     *types.Object
	waiters []*types.FuncInfo
	phases  map[*types.FuncInfo]*phaseMap
}

// phasePos is one position in a root's barrier-phase structure.
type phasePos struct {
	unit   int
	inLoop bool
	seg, k int
}

// phaseMap is the phase structure of one waiter root for one barrier.
type phaseMap struct {
	bare  []bool                         // per unit: bare wait vs loop
	pos   map[ast.NodeID][]phasePos      // nodes of the root body
	fnPos map[*types.FuncInfo][]phasePos // callees, via call closure
}

type barrierCall struct {
	call *ast.Call
	fn   *types.FuncInfo
	init bool
	obj  *types.Object // nil when the argument is not &global
}

func newBarrierAnalysis(rep *relay.Report, fj *forkJoin) *barrierAnalysis {
	ba := &barrierAnalysis{rep: rep, fj: fj}
	if fj.main == nil {
		return ba
	}
	calls := ba.collectCalls()
	// Obligation 1: one unresolvable barrier argument poisons everything.
	for _, c := range calls {
		if c.obj == nil {
			return ba
		}
	}
	byObj := make(map[*types.Object][]barrierCall)
	var order []*types.Object
	for _, c := range calls {
		if _, seen := byObj[c.obj]; !seen {
			order = append(order, c.obj)
		}
		byObj[c.obj] = append(byObj[c.obj], c)
	}
	for _, obj := range order {
		if bi := ba.validate(obj, byObj[obj]); bi != nil {
			ba.barriers = append(ba.barriers, bi)
		}
	}
	return ba
}

func (ba *barrierAnalysis) collectCalls() []barrierCall {
	info := ba.rep.Info
	var out []barrierCall
	for _, fn := range info.FuncList {
		f := fn
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.Call)
			if !ok {
				return true
			}
			t := info.CallTargets[call.ID()]
			if t == nil || (t.Builtin != types.BBarrierInit && t.Builtin != types.BBarrierWait) {
				return true
			}
			out = append(out, barrierCall{
				call: call,
				fn:   f,
				init: t.Builtin == types.BBarrierInit,
				obj:  ba.ampGlobal(call.Args[0]),
			})
			return true
		})
	}
	return out
}

// ampGlobal matches the argument form &g for a global g.
func (ba *barrierAnalysis) ampGlobal(e ast.Expr) *types.Object {
	u, ok := e.(*ast.Unary)
	if !ok || u.Op != token.AMP {
		return nil
	}
	id, ok := u.X.(*ast.Ident)
	if !ok {
		return nil
	}
	o := ba.rep.Info.Uses[id.ID()]
	if o == nil || o.Kind != types.ObjGlobal {
		return nil
	}
	return o
}

func (ba *barrierAnalysis) validate(obj *types.Object, calls []barrierCall) *barrierInfo {
	info := ba.rep.Info

	// Every use of the barrier variable must be one of these calls'
	// arguments: no copies, comparisons, or other address-takings.
	uses, sanctioned := 0, 0
	ast.InspectFile(info.File, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id.ID()] == obj {
			uses++
		}
		return true
	})
	for range calls {
		sanctioned++
	}
	if uses != sanctioned {
		return nil
	}

	// Obligation 2: a single init, top level in main.
	var initIdx = -1
	var countExpr ast.Expr
	inits := 0
	for _, c := range calls {
		if !c.init {
			continue
		}
		inits++
		if c.fn != ba.fj.main {
			return nil
		}
		idx, ok := ba.fj.topIdx[c.call.ID()]
		if !ok {
			return nil
		}
		es, ok := ba.fj.main.Decl.Body.Stmts[idx].(*ast.ExprStmt)
		if !ok || es.X != c.call {
			return nil
		}
		initIdx = idx
		countExpr = c.call.Args[1]
	}
	if inits != 1 {
		return nil
	}

	// Obligation 3: waits only inside spawn-bounded roots.
	waiterSet := make(map[*types.FuncInfo]bool)
	var waiters []*types.FuncInfo
	for _, c := range calls {
		if c.init {
			continue
		}
		if c.fn == ba.fj.main || !ba.rep.CG.IsRoot(c.fn) {
			return nil
		}
		if !waiterSet[c.fn] {
			waiterSet[c.fn] = true
			waiters = append(waiters, c.fn)
		}
	}
	if len(waiters) == 0 {
		return nil
	}
	for _, r := range waiters {
		// A waiter must be entered only by spawn: a direct call (from
		// main, a helper, or recursively) executes waits that neither
		// instancesBounded nor the phase map counts, breaking episode
		// alignment.
		for _, e := range ba.rep.CG.Callers[r] {
			if !e.Spawn {
				return nil
			}
		}
		min, ok := ba.fj.minSpawn[r]
		if !ok || initIdx >= min {
			return nil
		}
		if !ba.instancesBounded(r, countExpr, initIdx) {
			return nil
		}
	}

	// Obligation 4: pairwise disjoint windows among multiple waiters.
	for i := 0; i < len(waiters); i++ {
		for j := i + 1; j < len(waiters); j++ {
			if !ba.windowsDisjoint(waiters[i], waiters[j]) {
				return nil
			}
		}
	}

	bi := &barrierInfo{obj: obj, waiters: waiters, phases: make(map[*types.FuncInfo]*phaseMap)}
	for _, r := range waiters {
		// Obligation 5, per root; a nil entry keeps that root's pairs.
		bi.phases[r] = ba.buildPhases(obj, r)
	}
	return bi
}

func (ba *barrierAnalysis) windowsDisjoint(r1, r2 *types.FuncInfo) bool {
	j1, ok1 := ba.fj.joinAll[r1]
	s2, ok2 := ba.fj.minSpawn[r2]
	if ok1 && ok2 && j1 < s2 {
		return true
	}
	j2, ok3 := ba.fj.joinAll[r2]
	s1, ok4 := ba.fj.minSpawn[r1]
	return ok3 && ok4 && j2 < s1
}

// instancesBounded proves at most count(b) instances of root r run.
func (ba *barrierAnalysis) instancesBounded(r *types.FuncInfo, countExpr ast.Expr, initIdx int) bool {
	sites := ba.fj.spawnSites[r]
	if len(sites) == 0 {
		return false
	}
	// Each site must start r and nothing else (an indirect spawn that may
	// start several roots defeats instance counting).
	for _, s := range sites {
		if len(s.targets) != 1 || s.targets[0] != r {
			return false
		}
	}

	loops := ba.enclosingLoops(sites)
	if loops == nil {
		return false // a site inside a while loop, or not found
	}

	allBare := true
	for _, chain := range loops {
		if len(chain) != 0 {
			allBare = false
		}
	}
	if allBare {
		// Straight-line spawns: a literal count bounds them directly.
		lit, ok := countExpr.(*ast.IntLit)
		return ok && int64(len(sites)) <= lit.Value
	}

	// Loop-spawned: a single site inside exactly one counted loop whose
	// trip bound prints identically to the init count and is frozen from
	// before both the init and the loop.
	if len(sites) != 1 || len(loops[0]) != 1 {
		return false
	}
	f := loops[0][0]
	lv, _, ok := ba.fj.countedHeader(f)
	if !ok || lv == nil {
		return false
	}
	bound := f.CondE.(*ast.Binary).Y
	if ast.PrintExpr(bound) != ast.PrintExpr(countExpr) {
		return false
	}
	loopIdx, ok := ba.fj.topIdx[f.ID()]
	if !ok {
		return false
	}
	at := initIdx
	if loopIdx < at {
		at = loopIdx
	}
	if lit, isLit := bound.(*ast.IntLit); isLit {
		cl, isCl := countExpr.(*ast.IntLit)
		return isCl && lit.Value == cl.Value
	}
	return ba.fj.boundFrozenBefore(bound, at)
}

// enclosingLoops returns, per spawn site, the chain of for loops enclosing
// it in main (innermost last); nil if any site sits in a while loop or
// cannot be located.
func (ba *barrierAnalysis) enclosingLoops(sites []spawnSite) [][]*ast.ForStmt {
	out := make([][]*ast.ForStmt, len(sites))
	found := make([]bool, len(sites))
	var stack []*ast.ForStmt
	inWhile := 0
	bad := false

	var walkStmt func(s ast.Stmt)
	checkExprs := func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			call, ok := x.(*ast.Call)
			if !ok {
				return true
			}
			for i, site := range sites {
				if site.call == call {
					if inWhile > 0 {
						bad = true
						return true
					}
					out[i] = append([]*ast.ForStmt(nil), stack...)
					found[i] = true
				}
			}
			return true
		})
	}
	walkStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Block:
			for _, st := range s.Stmts {
				walkStmt(st)
			}
		case *ast.IfStmt:
			checkExprs(s.CondE)
			walkStmt(s.Then)
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *ast.WhileStmt:
			inWhile++
			checkExprs(s.CondE)
			walkStmt(s.Body)
			inWhile--
		case *ast.ForStmt:
			stack = append(stack, s)
			if s.Init != nil {
				walkStmt(s.Init)
			}
			if s.CondE != nil {
				checkExprs(s.CondE)
			}
			if s.Post != nil {
				walkStmt(s.Post)
			}
			walkStmt(s.Body)
			stack = stack[:len(stack)-1]
		default:
			checkExprs(s)
		}
	}
	walkStmt(ba.fj.main.Decl.Body)
	for i := range sites {
		if !found[i] || bad {
			return nil
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Phase walk

// buildPhases segments root r's body by waits on obj; nil means the shape
// is not provable and r's pairs must be kept.
func (ba *barrierAnalysis) buildPhases(obj *types.Object, r *types.FuncInfo) *phaseMap {
	pm := &phaseMap{
		pos:   make(map[ast.NodeID][]phasePos),
		fnPos: make(map[*types.FuncInfo][]phasePos),
	}
	unit := 0
	for _, s := range r.Decl.Body.Stmts {
		switch {
		case ba.isBareWait(s, obj):
			pm.assign(ba, s, phasePos{unit: unit})
			pm.bare = append(pm.bare, true)
			unit++
		case ba.containsWait(s, obj):
			f, ok := s.(*ast.ForStmt)
			if !ok {
				return nil // wait under if/while: trips are not uniform
			}
			if !ba.uniformLoop(f, r) {
				return nil
			}
			if !ba.walkLoopUnit(pm, f, obj, unit) {
				return nil
			}
			pm.bare = append(pm.bare, false)
			unit++
		default:
			pm.assign(ba, s, phasePos{unit: unit})
		}
	}
	if unit == 0 {
		return nil
	}
	return pm
}

// walkLoopUnit segments a uniform loop's body by its bare waits; false if
// any wait on obj hides below the body top level.
func (ba *barrierAnalysis) walkLoopUnit(pm *phaseMap, f *ast.ForStmt, obj *types.Object, unit int) bool {
	k := 0
	for _, s := range f.Body.Stmts {
		if ba.isBareWait(s, obj) {
			k++
		} else if ba.containsWait(s, obj) {
			return false
		}
	}
	if k == 0 {
		return false
	}
	if f.Init != nil {
		// The init runs once, before the loop's first episode.
		pm.assign(ba, f.Init, phasePos{unit: unit})
	}
	// The condition and post straddle the wrap: they run in the leading
	// segment of one iteration and the trailing segment of the previous.
	wrap := []phasePos{
		{unit: unit, inLoop: true, seg: 0, k: k},
		{unit: unit, inLoop: true, seg: k, k: k},
	}
	if f.CondE != nil {
		pm.assignExpr(ba, f.CondE, wrap)
	}
	if f.Post != nil {
		pm.assignStmtMulti(ba, f.Post, wrap)
	}
	seg := 0
	for _, s := range f.Body.Stmts {
		if ba.isBareWait(s, obj) {
			pm.assign(ba, s, phasePos{unit: unit, inLoop: true, seg: seg, k: k})
			seg++
			continue
		}
		pm.assign(ba, s, phasePos{unit: unit, inLoop: true, seg: seg, k: k})
	}
	return true
}

func (ba *barrierAnalysis) isBareWait(s ast.Stmt, obj *types.Object) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.Call)
	if !ok {
		return false
	}
	t := ba.rep.Info.CallTargets[call.ID()]
	if t == nil || t.Builtin != types.BBarrierWait {
		return false
	}
	return ba.ampGlobal(call.Args[0]) == obj
}

func (ba *barrierAnalysis) containsWait(s ast.Stmt, obj *types.Object) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		call, ok := n.(*ast.Call)
		if !ok {
			return true
		}
		t := ba.rep.Info.CallTargets[call.ID()]
		if t != nil && t.Builtin == types.BBarrierWait && ba.ampGlobal(call.Args[0]) == obj {
			found = true
		}
		return true
	})
	return found
}

// assign maps every node of a statement subtree to one position and adds
// the position to every function its call closure reaches.
func (pm *phaseMap) assign(ba *barrierAnalysis, n ast.Node, p phasePos) {
	pm.assignMulti(ba, n, []phasePos{p})
}

func (pm *phaseMap) assignStmtMulti(ba *barrierAnalysis, s ast.Stmt, ps []phasePos) {
	pm.assignMulti(ba, s, ps)
}

func (pm *phaseMap) assignExpr(ba *barrierAnalysis, e ast.Expr, ps []phasePos) {
	pm.assignMulti(ba, e, ps)
}

func (pm *phaseMap) assignMulti(ba *barrierAnalysis, n ast.Node, ps []phasePos) {
	visit := func(x ast.Node) { pm.pos[x.ID()] = append(pm.pos[x.ID()], ps...) }
	for fn := range ba.rep.CallClosure(n, visit) {
		pm.fnPos[fn] = append(pm.fnPos[fn], ps...)
	}
}

// uniformLoop proves a loop's trip count is the same in every instance of
// the root: counted header over uniform bounds, loop variable never
// written in the body, no return in the body, no break/continue binding
// this loop.
func (ba *barrierAnalysis) uniformLoop(f *ast.ForStmt, r *types.FuncInfo) bool {
	info := ba.rep.Info
	var v *types.Object
	var init ast.Expr
	switch s := f.Init.(type) {
	case *ast.DeclStmt:
		v = info.Objects[s.Decl.ID()]
		init = s.Decl.Init
	case *ast.AssignStmt:
		if s.Op != token.ASSIGN {
			return false
		}
		id, ok := s.LHS.(*ast.Ident)
		if !ok {
			return false
		}
		v = info.Uses[id.ID()]
		init = s.RHS
	default:
		return false
	}
	if v == nil || v.AddrTaken || init == nil || !ba.uniformExpr(init, r, 0) {
		return false
	}
	cond, ok := f.CondE.(*ast.Binary)
	if !ok || (cond.Op != token.LT && cond.Op != token.LE) {
		return false
	}
	cid, ok := cond.X.(*ast.Ident)
	if !ok || info.Uses[cid.ID()] != v || !ba.uniformExpr(cond.Y, r, 0) {
		return false
	}
	inc, ok := f.Post.(*ast.IncDecStmt)
	if !ok || inc.Op != token.INC {
		return false
	}
	pid, ok := inc.X.(*ast.Ident)
	if !ok || info.Uses[pid.ID()] != v {
		return false
	}

	okBody := true
	var check func(s ast.Stmt, loopDepth int)
	checkNode := func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.AssignStmt:
				if id, is := s.LHS.(*ast.Ident); is && info.Uses[id.ID()] == v {
					okBody = false
				}
			case *ast.IncDecStmt:
				if id, is := s.X.(*ast.Ident); is && info.Uses[id.ID()] == v {
					okBody = false
				}
			}
			return true
		})
	}
	check = func(s ast.Stmt, depth int) {
		switch s := s.(type) {
		case *ast.Block:
			for _, st := range s.Stmts {
				check(st, depth)
			}
		case *ast.IfStmt:
			checkNode(s.CondE)
			check(s.Then, depth)
			if s.Else != nil {
				check(s.Else, depth)
			}
		case *ast.ForStmt:
			if s.Init != nil {
				checkNode(s.Init)
			}
			if s.CondE != nil {
				checkNode(s.CondE)
			}
			if s.Post != nil {
				checkNode(s.Post)
			}
			check(s.Body, depth+1)
		case *ast.WhileStmt:
			checkNode(s.CondE)
			check(s.Body, depth+1)
		case *ast.ReturnStmt:
			okBody = false
		case *ast.BreakStmt, *ast.ContinueStmt:
			if depth == 0 {
				okBody = false
			}
		default:
			checkNode(s)
		}
	}
	check(f.Body, 0)
	return okBody
}

// uniformExpr proves an expression evaluates to the same value in every
// instance of the root: literals, frozen globals, and single-write locals
// with uniform initializers. Parameters (the thread id) are not uniform.
func (ba *barrierAnalysis) uniformExpr(e ast.Expr, r *types.FuncInfo, depth int) bool {
	if depth > 8 {
		return false
	}
	switch e := e.(type) {
	case *ast.IntLit:
		return true
	case *ast.Unary:
		return e.Op != token.AMP && e.Op != token.STAR && ba.uniformExpr(e.X, r, depth+1)
	case *ast.Binary:
		return ba.uniformExpr(e.X, r, depth+1) && ba.uniformExpr(e.Y, r, depth+1)
	case *ast.Ident:
		o := ba.rep.Info.Uses[e.ID()]
		if o == nil || o.AddrTaken {
			return false
		}
		switch o.Kind {
		case types.ObjGlobal:
			min, ok := ba.fj.minSpawn[r]
			return ok && ba.fj.frozenBefore(o, min)
		case types.ObjLocal:
			if o.Func != r {
				return false
			}
			if ba.fj.writeCount(o) != 1 {
				return false
			}
			d, ok := o.Decl.(*ast.VarDecl)
			return ok && d.Init != nil && ba.uniformExpr(d.Init, r, depth+1)
		}
	}
	return false
}

// bareIn reports whether any unit with index in [lo, hi) is a bare wait —
// a guaranteed episode between the two positions.
func (pm *phaseMap) bareIn(lo, hi int) bool {
	for i := lo; i < hi && i < len(pm.bare); i++ {
		if i >= 0 && pm.bare[i] {
			return true
		}
	}
	return false
}

// disjoint decides whether two positions of the same root can ever see
// the same barrier-episode count; see the derivation in the package doc.
func (pm *phaseMap) disjoint(a, b phasePos) bool {
	switch {
	case !a.inLoop && !b.inLoop:
		if a.unit == b.unit {
			return false
		}
		lo, hi := a.unit, b.unit
		if lo > hi {
			lo, hi = hi, lo
		}
		return pm.bareIn(lo, hi)

	case a.inLoop && b.inLoop:
		if a.unit == b.unit {
			// Same loop: segments collide iff equal mod k (segment k
			// wraps onto segment 0 of the next iteration).
			return a.seg%a.k != b.seg%a.k
		}
		e, l := a, b
		if b.unit < a.unit {
			e, l = b, a
		}
		// Only the earlier loop's trailing segment can catch the later
		// loop's leading segment, and only with no guaranteed episode
		// between (interposed loops may run zero trips).
		return e.seg != e.k || l.seg != 0 || pm.bareIn(e.unit+1, l.unit)

	default:
		lp, o := a, b
		if b.inLoop {
			lp, o = b, a
		}
		if o.unit <= lp.unit {
			// Outside-before: collides only with the loop's leading
			// segment when no episode is guaranteed in between.
			return lp.seg != 0 || pm.bareIn(o.unit, lp.unit)
		}
		// Outside-after: collides only with the trailing segment.
		return lp.seg != lp.k || pm.bareIn(lp.unit+1, o.unit)
	}
}

// allDisjoint reports whether every position combination is disjoint,
// stopping at the first colliding pair.
func (pm *phaseMap) allDisjoint(pa, pb []phasePos) bool {
	for _, x := range pa {
		for _, y := range pb {
			if !pm.disjoint(x, y) {
				return false
			}
		}
	}
	return true
}

// positions returns the phase positions of an access under this root.
func (pm *phaseMap) positions(a *relay.Access, root *types.FuncInfo) []phasePos {
	if a.Fn == root {
		return pm.pos[a.Node]
	}
	return pm.fnPos[a.Fn]
}
