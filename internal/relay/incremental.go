package relay

import (
	"fmt"
	"sort"

	"repro/internal/callgraph"
	"repro/internal/minic/ast"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
	"repro/internal/summary"
)

// Incremental RELAY.
//
// The bottom-up summary walk is the only stage worth memoizing across
// edits: parsing, type checking and the pointer analyses are whole-program
// and cheap, while summary composition dominates analysis time and is
// per-function by construction. AnalyzeIncremental runs the same pipeline
// as AnalyzeParallel but consults a summary.Store before each SCC's
// fixpoint: if every member function's content key (summary.Indexer) hits
// the store and decodes cleanly against the fresh AST, the stored
// summaries are installed and the SCC's walk is skipped. Because a
// function's key embeds its callee SCCs' keys, a store hit proves the
// entire callee cone is unchanged, so reuse needs no further validity
// check — the dirty cone (the edited functions plus their transitive
// callers) is exactly the set of key misses.
//
// Everything downstream of the summaries (race pair generation, escape
// filtering, spawn multiplicity) is recomputed fresh, and decoded
// summaries rehydrate node IDs, object IDs and positions from the current
// parse, so the resulting Report is byte-identical to a from-scratch
// analysis — the property the differential and fuzz tests pin down.

// IncrementalStats describes what one incremental analysis reused and
// recomputed.
type IncrementalStats struct {
	TotalFuncs      int
	ReusedFuncs     int
	RecomputedFuncs int
	DirtySCCs       int

	// Dirty lists the recomputed functions in bottom-up SCC order.
	Dirty []string

	// Unkeyable lists recomputed functions whose summaries could not be
	// keyed or encoded and were therefore not stored (fail-closed).
	Unkeyable []string

	// MHPFactsReused reports whether the MHP refinement verdicts were
	// replayed from the store (set by the core wiring, not here).
	MHPFactsReused bool

	// PrecisionFactsReused reports whether the precision-layer verdicts
	// (escape/must-lock/read-only) were replayed from the store (set by
	// the core wiring, not here).
	PrecisionFactsReused bool

	// Index is the content index of this parse, kept for artifact
	// encoding/decoding by later stages. Its ProgramKey() addresses
	// whole-program artifacts (MHP facts); it is computed on first use,
	// so loads that never touch the refinement never pay for it.
	Index *summary.Indexer
}

// ProgramKey addresses whole-program artifacts (MHP facts).
func (s *IncrementalStats) ProgramKey() summary.Key { return s.Index.ProgramKey() }

// AnalyzeIncremental is AnalyzeParallel backed by a summary store: SCCs
// whose function keys all hit the store reuse their stored summaries, the
// rest (the dirty cone) run the normal fixpoint and are stored for next
// time. The Report is byte-identical to AnalyzeParallel's on the same
// program for any store contents and any worker count.
func AnalyzeIncremental(info *types.Info, pta *pointsto.Analysis, cg *callgraph.Graph, workers int, store *summary.Store) (*Report, *IncrementalStats) {
	idx := summary.NewIndexerParallel(info, pta, cg, workers)
	rl := newAnalyzer(info, pta, cg)
	stats := &IncrementalStats{Index: idx}

	// Reuse pass, bottom-up: an SCC is clean iff every member is keyable,
	// present in the store, and decodes against the fresh AST. Reuse
	// decisions depend only on the index and the store — never on other
	// SCCs' decisions — so they are identical for every worker count.
	dirty := make([]bool, len(cg.SCCs))
	for i, scc := range cg.SCCs {
		stats.TotalFuncs += len(scc)
		decoded := make([]*Summary, len(scc))
		clean := true
		for j, fn := range scc {
			k, keyable := idx.FuncKey(fn.Name)
			if !keyable {
				clean = false
				break
			}
			ps, hit := store.Get(k)
			if !hit {
				clean = false
				break
			}
			sum, ok := decodeSummary(ps, fn, idx)
			if !ok {
				clean = false
				break
			}
			decoded[j] = sum
		}
		if clean {
			for j, fn := range scc {
				rl.summaries[fn] = decoded[j]
			}
			stats.ReusedFuncs += len(scc)
			continue
		}
		dirty[i] = true
		stats.DirtySCCs++
		for _, fn := range scc {
			stats.Dirty = append(stats.Dirty, fn.Name)
		}
	}
	stats.RecomputedFuncs = len(stats.Dirty)

	// Fixpoint over the dirty cone only (reused summaries are already
	// installed, so dirty callers compose them exactly as a fresh walk
	// would).
	if err := rl.walk(dirty, workers); err != nil {
		panic(fmt.Sprintf("relay: summary walk failed: %v", err)) // test-only fault hook
	}

	// Store the recomputed summaries. Unkeyable or unencodable functions
	// are skipped (fail-closed: nothing ambiguous enters the store).
	for i, scc := range cg.SCCs {
		if !dirty[i] {
			continue
		}
		for _, fn := range scc {
			k, keyable := idx.FuncKey(fn.Name)
			if !keyable {
				stats.Unkeyable = append(stats.Unkeyable, fn.Name)
				continue
			}
			enc, ok := encodeSummary(rl.summaries[fn], idx)
			if !ok {
				stats.Unkeyable = append(stats.Unkeyable, fn.Name)
				continue
			}
			store.Put(k, enc)
		}
	}

	return rl.detectRaces(), stats
}

// encodeSummary turns a freshly computed summary into its portable image.
// ok is false when any access coordinate or object falls outside the
// canonical grammars, in which case the summary must not be stored.
func encodeSummary(sum *Summary, idx *summary.Indexer) (*summary.FuncSummary, bool) {
	ps := &summary.FuncSummary{
		Fn:       sum.Fn.Name,
		NetPlus:  append([]string(nil), sum.NetPlus...),
		NetMinus: append([]string(nil), sum.NetMinus...),
	}
	for _, a := range sum.Accesses {
		nodeFn, nodeOrd, ok := idx.NodeRef(a.node)
		if !ok || nodeFn != a.fn.Name {
			return nil, false
		}
		stmtFn, stmtOrd, ok := idx.NodeRef(a.stmt)
		if !ok || stmtFn != a.fn.Name {
			return nil, false
		}
		objs := make([]string, len(a.objs))
		for i, o := range a.objs {
			k := idx.ObjKey(o)
			if k == "" {
				return nil, false
			}
			objs[i] = k
		}
		ps.Accesses = append(ps.Accesses, summary.FuncAccess{
			Fn:    a.fn.Name,
			Node:  nodeOrd,
			Stmt:  stmtOrd,
			Write: a.write,
			Objs:  objs,
			Plus:  append([]string(nil), a.plus...),
			Minus: append([]string(nil), a.minus...),
		})
	}
	return ps, true
}

// decodeSummary rehydrates a stored summary against the current parse:
// ordinals resolve to fresh nodes (and their positions), canonical object
// keys to fresh ObjIDs. ok is false on any mismatch — a missing function,
// an out-of-range ordinal, a node of the wrong shape, an unresolvable
// object — which marks the SCC dirty rather than risking a stale reuse.
func decodeSummary(ps *summary.FuncSummary, fn *types.FuncInfo, idx *summary.Indexer) (*Summary, bool) {
	if ps.Fn != fn.Name {
		return nil, false
	}
	sum := &Summary{
		Fn:       fn,
		NetPlus:  append([]string(nil), ps.NetPlus...),
		NetMinus: append([]string(nil), ps.NetMinus...),
	}
	for i := range ps.Accesses {
		pa := &ps.Accesses[i]
		afn := idx.Info().Funcs[pa.Fn]
		if afn == nil {
			return nil, false
		}
		nodeN, ok := idx.NodeAt(pa.Fn, pa.Node)
		if !ok {
			return nil, false
		}
		node, isExpr := nodeN.(ast.Expr)
		if !isExpr {
			return nil, false
		}
		stmtN, ok := idx.NodeAt(pa.Fn, pa.Stmt)
		if !ok {
			return nil, false
		}
		objs := make([]pointsto.ObjID, len(pa.Objs))
		for j, k := range pa.Objs {
			oid, ok := idx.ObjByKey(k)
			if !ok {
				return nil, false
			}
			objs[j] = oid
		}
		// Fresh analysis emits objs sorted by the current parse's ObjIDs
		// (pointsto.ObjectsOf order); restore that invariant, since IDs
		// permute across parses.
		sort.Slice(objs, func(a, b int) bool { return objs[a] < objs[b] })
		sum.Accesses = append(sum.Accesses, &summaryAccess{
			fn:    afn,
			node:  node.ID(),
			stmt:  stmtN.ID(),
			write: pa.Write,
			objs:  objs,
			plus:  append([]string(nil), pa.Plus...),
			minus: append([]string(nil), pa.Minus...),
			pos:   node.Pos(),
		})
	}
	return sum, true
}

// EncodeMHPFacts records, portably, the verdict the MHP refinement reached
// for every pair of the unrefined report: refined must be the result of
// unrefined.RefineMHP. ok is false when any pair's coordinates cannot be
// canonicalized (the facts are then not stored).
func EncodeMHPFacts(unrefined, refined *Report, idx *summary.Indexer) (*summary.MHPFacts, bool) {
	reason := make(map[*RacePair]string, len(refined.Pruned))
	for _, pp := range refined.Pruned {
		reason[pp.Pair] = pp.Reason
	}
	kept := make(map[*RacePair]bool, len(refined.Pairs))
	for _, p := range refined.Pairs {
		kept[p] = true
	}
	facts := &summary.MHPFacts{}
	for _, p := range unrefined.Pairs {
		rsn, pruned := reason[p]
		if !pruned && !kept[p] {
			return nil, false // refined is not a refinement of unrefined
		}
		fp, ok := factCoords(p, idx)
		if !ok {
			return nil, false
		}
		fp.Pruned = pruned
		fp.Reason = rsn
		facts.Pairs = append(facts.Pairs, fp)
	}
	return facts, true
}

// ApplyMHPFacts replays stored refinement verdicts through RefineMHP.
// Every fact must match its pair position-for-position (function names and
// node ordinals for both accesses); any mismatch returns ok=false and the
// caller must fall back to the real MHP analysis (fail-closed).
func ApplyMHPFacts(unrefined *Report, facts *summary.MHPFacts, idx *summary.Indexer) (*Report, bool) {
	if len(facts.Pairs) != len(unrefined.Pairs) {
		return nil, false
	}
	okAll := true
	i := 0
	refined := unrefined.RefineMHP(func(p *RacePair) (bool, string) {
		f := facts.Pairs[i]
		i++
		fp, ok := factCoords(p, idx)
		if !ok || fp.FnA != f.FnA || fp.NodeA != f.NodeA || fp.FnB != f.FnB || fp.NodeB != f.NodeB {
			okAll = false
			return false, ""
		}
		return f.Pruned, f.Reason
	})
	if !okAll {
		return nil, false
	}
	return refined, true
}

// factCoords canonicalizes a race pair's two access nodes.
func factCoords(p *RacePair, idx *summary.Indexer) (summary.FactPair, bool) {
	fnA, ordA, okA := idx.NodeRef(p.A.Node)
	fnB, ordB, okB := idx.NodeRef(p.B.Node)
	if !okA || !okB || fnA != p.A.Fn.Name || fnB != p.B.Fn.Name {
		return summary.FactPair{}, false
	}
	return summary.FactPair{FnA: fnA, NodeA: ordA, FnB: fnB, NodeB: ordB}, true
}
