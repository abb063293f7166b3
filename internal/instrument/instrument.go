// Package instrument implements Chimera's weak-lock instrumentation pass
// (paper §2.2): every potential race pair reported by RELAY is guarded by a
// weak-lock, at the coarsest granularity the profile and symbolic-bounds
// analyses justify:
//
//   - racy function pairs observed non-concurrent in every profile run get
//     a function-lock shared through clique analysis (paper §4);
//   - racy accesses in call-free loops get a loop-lock protecting the
//     symbolic address range, or the whole loop when bounds are imprecise
//     but the body is small (paper §5);
//   - remaining accesses get a basic-block lock, or an instruction lock
//     when the basic block contains a function call (paper §2.2).
//
// The two endpoints of a race pair always share a lock: site-level pairs
// are grouped into connected components (one lock per component), so the
// recorded acquire order of that lock orders the racy accesses, which is
// what makes replay deterministic.
//
// The transformation emits MiniC source text (the moral equivalent of the
// original system's CIL source-to-source translation); the caller reparses
// and recompiles it. Weak-locks in the VM are reentrant and time out, so
// the instrumented code cannot deadlock even where the static ordering
// discipline (func < loop < bb < instr, ascending IDs) cannot be
// guaranteed; the order log keeps replay sound either way.
package instrument

import (
	"fmt"
	"sort"

	"repro/internal/clique"
	"repro/internal/minic/ast"
	"repro/internal/minic/types"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/relay"
	"repro/internal/symbolic"
	"repro/internal/weaklock"
)

// Options selects which optimizations are enabled — the paper's Figure 5
// configurations.
type Options struct {
	// FuncLocks enables profile-driven function-granularity locks (§4).
	FuncLocks bool

	// LoopLocks enables symbolic-bounds loop-granularity locks (§5).
	LoopLocks bool

	// BBLocks enables basic-block granularity; when false, site locks
	// degrade to instruction granularity ("instr" config).
	BBLocks bool

	// LoopBodyThreshold is the body-size limit under which an imprecise
	// loop still gets a (serializing) loop-lock (§5.3).
	LoopBodyThreshold int

	// PerPairFuncLocks disables clique sharing (paper Fig. 3(a) vs 3(b)):
	// every non-concurrent racy function pair gets its own function-lock,
	// so a function racing with several partners acquires several locks.
	// Ablation knob; the paper's configuration shares via cliques.
	PerPairFuncLocks bool

	// Tracer, when non-nil, records a span per instrumentation stage
	// (clique/function-lock assignment, site-lock assignment and
	// granularity decisions, rewrite).
	Tracer *obs.Tracer
}

// NaiveOptions is the paper's "instr" configuration: every race guarded at
// instruction granularity.
func NaiveOptions() Options { return Options{} }

// AllOptions enables every optimization ("inst+bb+loop+func").
func AllOptions() Options {
	return Options{FuncLocks: true, LoopLocks: true, BBLocks: true, LoopBodyThreshold: 14}
}

// OptionsFor maps a configuration name of the Figure 5 set ("instr",
// "instr+func", "instr+loop", "all") to its options. It reports false for
// any other name, including the "+mhp" forms: that suffix selects the race
// report a configuration instruments, not its options.
func OptionsFor(name string) (Options, bool) {
	switch name {
	case "instr":
		return NaiveOptions(), true
	case "instr+func":
		return Options{FuncLocks: true}, true
	case "instr+loop":
		return Options{LoopLocks: true, LoopBodyThreshold: 14}, true
	case "all":
		return AllOptions(), true
	}
	return Options{}, false
}

// Site describes one instrumentation decision, for reports and tests.
type Site struct {
	Node    ast.NodeID // racy lvalue
	Kind    weaklock.Kind
	Lock    weaklock.ID
	Precise bool   // loop sites: bounds were precise
	Reason  string // loop sites: imprecision reason
	Fn      string
}

// Result is the instrumentation output.
type Result struct {
	// Source is the instrumented MiniC program text; reparse + recheck +
	// recompile to run it.
	Source string

	// Table is the weak-lock table the VM needs.
	Table *weaklock.Table

	// Sites are the per-racy-node decisions.
	Sites []Site

	// FuncLockOf maps function names to the function-lock IDs they
	// acquire on entry.
	FuncLockOf map[string][]weaklock.ID

	// Cliques is the clique analysis result (nil without FuncLocks).
	Cliques *clique.Result

	// StaticCounts counts instrumentation sites per granularity.
	StaticCounts [weaklock.NumKinds]int

	// PairsByFunc counts race pairs handled by function locks vs sites.
	FuncHandledPairs, SiteHandledPairs int
}

// nodeCtx locates a racy node in the tree.
type nodeCtx struct {
	fn    string
	expr  ast.Expr
	stmt  ast.Stmt   // innermost statement (may be a loop/if for header accesses)
	loops []ast.Stmt // enclosing loops, outermost first (excluding stmt itself)
	block *ast.Block // block containing stmt (nil for header statements)
	idx   int        // index of stmt within block
}

// loopAcq is one loop-level acquire placement.
type loopAcq struct {
	lock    weaklock.ID
	precise bool
	base    ast.Expr
	lo, hi  *symbolic.LinExpr
}

// region is a basic-block region within a block.
type region struct {
	start, end int // inclusive statement index range
	locks      map[weaklock.ID]bool
}

// plan is the full set of placements consumed by the rewriter.
type plan struct {
	funcLocks  map[string][]weaklock.ID
	loopSites  map[ast.NodeID][]loopAcq            // loop stmt -> acquires
	bbSites    map[ast.NodeID][]*region            // block -> regions
	instrSites map[ast.NodeID]map[weaklock.ID]bool // stmt -> locks
	table      *weaklock.Table
}

// Instrument runs the full pass. conc may be nil (no profile; function
// locks disabled in that case regardless of Options).
func Instrument(rep *relay.Report, conc *profile.Concurrency, opts Options) (*Result, error) {
	ins := &instrumenter{
		rep:  rep,
		conc: conc,
		opts: opts,
		sym:  symbolic.New(rep.Info),
		res: &Result{
			Table:      weaklock.NewTable(),
			FuncLockOf: make(map[string][]weaklock.ID),
		},
	}
	if ins.opts.LoopBodyThreshold == 0 {
		ins.opts.LoopBodyThreshold = 14
	}
	tr := opts.Tracer
	sp := tr.Start("locate")
	ins.locate()
	ins.splitPairs()
	sp.SetAttr("func_pairs", int64(ins.res.FuncHandledPairs)).
		SetAttr("site_pairs", int64(ins.res.SiteHandledPairs)).End()
	sp = tr.Start("clique-func-locks")
	ins.assignFuncLocks()
	if ins.res.Cliques != nil {
		sp.SetAttr("cliques", int64(len(ins.res.Cliques.Cliques)))
	}
	sp.SetAttr("func_locks", int64(len(ins.res.FuncLockOf))).End()
	sp = tr.Start("site-locks")
	ins.assignSiteLocks()
	ins.decideSites()
	sp.SetAttr("sites", int64(len(ins.res.Sites))).
		SetAttr("locks", int64(ins.res.Table.Len())).End()
	sp = tr.Start("rewrite")
	src, err := ins.rewrite()
	sp.End()
	if err != nil {
		return nil, err
	}
	ins.res.Source = src
	return ins.res, nil
}

type instrumenter struct {
	rep  *relay.Report
	conc *profile.Concurrency
	opts Options
	sym  *symbolic.Analysis
	res  *Result

	ctx map[ast.NodeID]*nodeCtx

	funcPairs []clique.Pair
	sitePairs []*relay.RacePair

	// nodeLock maps racy nodes with site pairs to their component lock.
	nodeLock map[ast.NodeID]weaklock.ID

	// wlUsers marks functions whose call subtree performs weak-lock
	// operations (for §2.3 release-around-inner-region).
	wlUsers map[string]bool

	pl plan
}

// computeWLUsers closes the "uses weak-locks" property over the call
// graph: a function uses them if it holds a function-lock, contains any
// instrumentation site, or calls a user.
func (ins *instrumenter) computeWLUsers() {
	ins.wlUsers = make(map[string]bool)
	for fn := range ins.pl.funcLocks {
		ins.wlUsers[fn] = true
	}
	for _, s := range ins.res.Sites {
		ins.wlUsers[s.Fn] = true
	}
	// Propagate up the call graph to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, fn := range ins.rep.Info.FuncList {
			if ins.wlUsers[fn.Name] {
				continue
			}
			for _, callee := range ins.rep.CG.CalleesOf(fn) {
				if ins.wlUsers[callee.Name] {
					ins.wlUsers[fn.Name] = true
					changed = true
					break
				}
			}
		}
	}
}

// locate builds the nodeCtx map for every racy node by walking the
// original tree with positional context.
func (ins *instrumenter) locate() {
	ins.ctx = make(map[ast.NodeID]*nodeCtx)
	racy := ins.rep.RacyNodes

	for _, fn := range ins.rep.Info.FuncList {
		fnName := fn.Name
		var loops []ast.Stmt

		var walkStmt func(s ast.Stmt, blk *ast.Block, idx int)
		record := func(n ast.Node, stmt ast.Stmt, blk *ast.Block, idx int) {
			ast.Inspect(n, func(x ast.Node) bool {
				e, ok := x.(ast.Expr)
				if !ok {
					return true
				}
				if _, isRacy := racy[e.ID()]; !isRacy {
					return true
				}
				if _, seen := ins.ctx[e.ID()]; seen {
					return true
				}
				ins.ctx[e.ID()] = &nodeCtx{
					fn: fnName, expr: e, stmt: stmt,
					loops: append([]ast.Stmt{}, loops...),
					block: blk, idx: idx,
				}
				return true
			})
		}
		var walkBlock func(b *ast.Block)
		walkBlock = func(b *ast.Block) {
			for i, s := range b.Stmts {
				walkStmt(s, b, i)
			}
		}
		walkStmt = func(s ast.Stmt, blk *ast.Block, idx int) {
			switch s := s.(type) {
			case *ast.Block:
				walkBlock(s)
			case *ast.IfStmt:
				record(s.CondE, s, blk, idx)
				walkBlock(s.Then)
				if s.Else != nil {
					walkStmt(s.Else, nil, -1)
				}
			case *ast.WhileStmt:
				record(s.CondE, s, blk, idx)
				loops = append(loops, s)
				walkBlock(s.Body)
				loops = loops[:len(loops)-1]
			case *ast.ForStmt:
				if s.Init != nil {
					record(s.Init, s, blk, idx)
				}
				if s.CondE != nil {
					record(s.CondE, s, blk, idx)
				}
				if s.Post != nil {
					record(s.Post, s, blk, idx)
				}
				loops = append(loops, s)
				walkBlock(s.Body)
				loops = loops[:len(loops)-1]
			default:
				record(s, s, blk, idx)
			}
		}
		walkBlock(fn.Decl.Body)
	}
}

// splitPairs divides race pairs into function-lock-handled and
// site-handled (paper Fig. 1 decision). Functions that unconditionally
// block (barrier_wait, join) are excluded from function-lock treatment:
// holding a weak-lock across a barrier guarantees weak-lock timeouts on
// every generation, the pathological case §2.3's preemption mechanism is a
// backstop for, not a steady state.
func (ins *instrumenter) splitPairs() {
	blocksAlways := make(map[string]bool)
	for _, fn := range ins.rep.Info.FuncList {
		found := false
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.Call)
			if !ok {
				return true
			}
			if target := ins.rep.Info.CallTargets[call.ID()]; target != nil {
				switch target.Builtin {
				case types.BBarrierWait, types.BJoin:
					found = true
					return false
				}
			}
			return true
		})
		blocksAlways[fn.Name] = found
	}
	useFunc := func(a, b string) bool {
		if !ins.opts.FuncLocks || ins.conc == nil {
			return false
		}
		if blocksAlways[a] || blocksAlways[b] {
			return false
		}
		return !ins.conc.Concurrent(a, b)
	}
	seenFP := make(map[clique.Pair]bool)
	for _, p := range ins.rep.Pairs {
		fa, fb := p.A.Fn.Name, p.B.Fn.Name
		if useFunc(fa, fb) {
			fp := clique.MakePair(fa, fb)
			if !seenFP[fp] {
				seenFP[fp] = true
				ins.funcPairs = append(ins.funcPairs, fp)
			}
			ins.res.FuncHandledPairs++
			continue
		}
		ins.sitePairs = append(ins.sitePairs, p)
		ins.res.SiteHandledPairs++
	}
}

// assignFuncLocks runs the clique analysis and allocates function-locks.
func (ins *instrumenter) assignFuncLocks() {
	if len(ins.funcPairs) == 0 {
		return
	}
	if ins.opts.PerPairFuncLocks {
		// Ablation: one lock per racy function pair (paper Fig. 3(a)).
		ins.pl.funcLocks = make(map[string][]weaklock.ID)
		add := func(fn string, id weaklock.ID) {
			ins.pl.funcLocks[fn] = append(ins.pl.funcLocks[fn], id)
		}
		for _, fp := range ins.funcPairs {
			id := ins.res.Table.Add(weaklock.KindFunc,
				fmt.Sprintf("pair:%s-%s", fp[0], fp[1]), false)
			add(fp[0], id)
			if fp[1] != fp[0] {
				add(fp[1], id)
			}
		}
		for fn, ids := range ins.pl.funcLocks {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			ins.pl.funcLocks[fn] = ids
			ins.res.FuncLockOf[fn] = ids
		}
		return
	}
	concurrent := func(a, b string) bool {
		if ins.conc == nil {
			return true
		}
		return ins.conc.Concurrent(a, b)
	}
	cl := clique.Build(ins.funcPairs, concurrent)
	ins.res.Cliques = cl

	lockOfClique := make(map[int]weaklock.ID)
	// Allocate in clique order for determinism.
	var usedCliques []int
	seen := make(map[int]bool)
	for _, fp := range ins.funcPairs {
		if ci, ok := cl.CliqueOfPair[fp]; ok && !seen[ci] {
			seen[ci] = true
			usedCliques = append(usedCliques, ci)
		}
	}
	sort.Ints(usedCliques)
	for _, ci := range usedCliques {
		lockOfClique[ci] = ins.res.Table.Add(weaklock.KindFunc,
			fmt.Sprintf("clique%d", ci), false)
	}

	ins.pl.funcLocks = make(map[string][]weaklock.ID)
	for fnName, cliqueIDs := range cl.FuncCliques {
		var ids []weaklock.ID
		for _, ci := range cliqueIDs {
			if id, ok := lockOfClique[ci]; ok {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if len(ids) > 0 {
			ins.pl.funcLocks[fnName] = ids
			ins.res.FuncLockOf[fnName] = ids
		}
	}

	// Pairs whose clique assignment failed fall back to site handling.
	for _, fp := range ins.funcPairs {
		if _, ok := cl.CliqueOfPair[fp]; ok {
			continue
		}
		for _, p := range ins.rep.Pairs {
			if clique.MakePair(p.A.Fn.Name, p.B.Fn.Name) == fp {
				ins.sitePairs = append(ins.sitePairs, p)
			}
		}
	}
}

// assignSiteLocks groups site-handled racy nodes into connected components
// and allocates one lock per component.
func (ins *instrumenter) assignSiteLocks() {
	ins.nodeLock = make(map[ast.NodeID]weaklock.ID)
	parent := make(map[ast.NodeID]ast.NodeID)
	var find func(x ast.NodeID) ast.NodeID
	find = func(x ast.NodeID) ast.NodeID {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	add := func(x ast.NodeID) {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
	}
	for _, p := range ins.sitePairs {
		add(p.A.Node)
		add(p.B.Node)
		ra, rb := find(p.A.Node), find(p.B.Node)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	var roots []ast.NodeID
	seen := make(map[ast.NodeID]bool)
	var nodes []ast.NodeID
	for n := range parent {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	lockOfRoot := make(map[ast.NodeID]weaklock.ID)
	for _, n := range nodes {
		r := find(n)
		if !seen[r] {
			seen[r] = true
			roots = append(roots, r)
			lockOfRoot[r] = ins.res.Table.Add(weaklock.KindInstr,
				fmt.Sprintf("sites@%d", r), true)
		}
		ins.nodeLock[n] = lockOfRoot[r]
	}
	_ = roots
}

// decideSites picks the granularity for every site-handled racy node and
// fills the placement plan.
func (ins *instrumenter) decideSites() {
	ins.pl.loopSites = make(map[ast.NodeID][]loopAcq)
	ins.pl.bbSites = make(map[ast.NodeID][]*region)
	ins.pl.instrSites = make(map[ast.NodeID]map[weaklock.ID]bool)
	ins.pl.table = ins.res.Table
	if ins.pl.funcLocks == nil {
		ins.pl.funcLocks = make(map[string][]weaklock.ID)
	}

	var nodes []ast.NodeID
	for n := range ins.nodeLock {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	for _, n := range nodes {
		ctx := ins.ctx[n]
		if ctx == nil {
			// A racy node we failed to locate would be an internal bug;
			// guard with an instruction site on nothing is impossible, so
			// skip (tests assert full coverage).
			continue
		}
		lock := ins.nodeLock[n]
		ins.decideNode(n, ctx, lock)
	}
}

func (ins *instrumenter) decideNode(n ast.NodeID, ctx *nodeCtx, lock weaklock.ID) {
	// Candidate loops: the access's enclosing loops (the stmt itself
	// counts when it is a loop header), restricted to call-free bodies —
	// a suffix of the chain, since a loop containing calls contains them
	// in every outer loop too.
	chain := ctx.loops
	if isLoopStmt(ctx.stmt) {
		chain = append(append([]ast.Stmt{}, chain...), ctx.stmt)
	}
	var candidates []ast.Stmt
	for i := 0; i < len(chain); i++ {
		if !symbolic.LoopHasCalls(ins.rep.Info, chain[i]) {
			candidates = chain[i:]
			break
		}
	}

	if ins.opts.LoopLocks && len(candidates) > 0 {
		b := ins.sym.AccessBounds(candidates, ctx.expr)
		if b.Precise {
			ins.addLoopSite(n, ctx, b.Loop, lock, b)
			return
		}
		inner := candidates[len(candidates)-1]
		if symbolic.LoopBodySize(inner) <= ins.opts.LoopBodyThreshold {
			ins.addLoopSite(n, ctx, inner, lock, b) // imprecise: ±inf range
			return
		}
		// Large imprecise loop: fall through to bb/instr inside the loop.
	}

	// Header accesses of loops/ifs cannot take a finer granularity than
	// their whole statement.
	if isLoopStmt(ctx.stmt) || isIfStmt(ctx.stmt) {
		ins.addInstrSite(n, ctx, lock)
		return
	}

	if ins.opts.BBLocks {
		if stmtBreaksRegion(ins.rep.Info, ctx.stmt) {
			// Paper §2.2: a basic block with a function call degrades to
			// instruction granularity.
			ins.addInstrSite(n, ctx, lock)
			return
		}
		ins.addBBSite(n, ctx, lock)
		return
	}
	ins.addInstrSite(n, ctx, lock)
}

func (ins *instrumenter) addLoopSite(n ast.NodeID, ctx *nodeCtx, loop ast.Stmt, lock weaklock.ID, b *symbolic.Bounds) {
	acqs := ins.pl.loopSites[loop.ID()]
	for i := range acqs {
		if acqs[i].lock != lock {
			continue
		}
		// Same lock twice on one loop: merge; differing bounds widen to
		// infinity (a symbolic union is not expressible).
		if !acqs[i].precise || !b.Precise || !sameBounds(&acqs[i], b) {
			acqs[i].precise = false
		}
		ins.pl.loopSites[loop.ID()] = acqs
		ins.res.Sites = append(ins.res.Sites, Site{
			Node: n, Kind: weaklock.KindLoop, Lock: lock,
			Precise: acqs[i].precise, Fn: ctx.fn, Reason: b.Reason,
		})
		return
	}
	acq := loopAcq{lock: lock, precise: b.Precise}
	if b.Precise {
		acq.base, acq.lo, acq.hi = b.Base, b.LoWords, b.HiWords
	}
	ins.pl.loopSites[loop.ID()] = append(acqs, acq)
	ins.res.StaticCounts[weaklock.KindLoop]++
	ins.res.Sites = append(ins.res.Sites, Site{
		Node: n, Kind: weaklock.KindLoop, Lock: lock,
		Precise: b.Precise, Fn: ctx.fn, Reason: b.Reason,
	})
}

func sameBounds(a *loopAcq, b *symbolic.Bounds) bool {
	return ast.PrintExpr(a.base) == ast.PrintExpr(b.Base) &&
		a.lo.String() == b.LoWords.String() &&
		a.hi.String() == b.HiWords.String()
}

func (ins *instrumenter) addBBSite(n ast.NodeID, ctx *nodeCtx, lock weaklock.ID) {
	if ctx.block == nil {
		ins.addInstrSite(n, ctx, lock)
		return
	}
	// Expand to the maximal run of simple statements around the racy
	// statement, stopping at calls and at anything that can block:
	// holding a weak-lock across a join/barrier/lock/IO wait would create
	// deadlocks that only the timeout mechanism could untangle.
	start, end := ctx.idx, ctx.idx
	ok := func(s ast.Stmt) bool {
		return isSimpleStmt(s) && !stmtBreaksRegion(ins.rep.Info, s)
	}
	for start > 0 && ok(ctx.block.Stmts[start-1]) {
		start--
	}
	for end+1 < len(ctx.block.Stmts) && ok(ctx.block.Stmts[end+1]) {
		end++
	}
	regions := ins.pl.bbSites[ctx.block.ID()]
	for _, r := range regions {
		if start <= r.end && r.start <= end {
			// Overlapping regions merge.
			if start < r.start {
				r.start = start
			}
			if end > r.end {
				r.end = end
			}
			r.locks[lock] = true
			ins.res.Sites = append(ins.res.Sites, Site{
				Node: n, Kind: weaklock.KindBB, Lock: lock, Fn: ctx.fn,
			})
			return
		}
	}
	ins.pl.bbSites[ctx.block.ID()] = append(regions, &region{
		start: start, end: end, locks: map[weaklock.ID]bool{lock: true},
	})
	ins.res.StaticCounts[weaklock.KindBB]++
	ins.res.Sites = append(ins.res.Sites, Site{
		Node: n, Kind: weaklock.KindBB, Lock: lock, Fn: ctx.fn,
	})
}

func (ins *instrumenter) addInstrSite(n ast.NodeID, ctx *nodeCtx, lock weaklock.ID) {
	id := ctx.stmt.ID()
	if ins.pl.instrSites[id] == nil {
		ins.pl.instrSites[id] = make(map[weaklock.ID]bool)
		ins.res.StaticCounts[weaklock.KindInstr]++
	}
	ins.pl.instrSites[id][lock] = true
	ins.res.Sites = append(ins.res.Sites, Site{
		Node: n, Kind: weaklock.KindInstr, Lock: lock, Fn: ctx.fn,
	})
}

func isLoopStmt(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.ForStmt, *ast.WhileStmt:
		return true
	}
	return false
}

func isIfStmt(s ast.Stmt) bool {
	_, ok := s.(*ast.IfStmt)
	return ok
}

func isSimpleStmt(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.DeclStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.ExprStmt:
		return true
	}
	return false
}
