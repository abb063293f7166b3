package escape

import (
	"repro/internal/minic/ast"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
	"repro/internal/relay"
)

// Read-only-sharing detection.
//
// Before main executes its first spawn, exactly one thread exists, so a
// write that provably completes before that point is ordered before
// every access any child thread will ever perform. An object whose
// every summary-visible write is such a pre-spawn write is effectively
// immutable while the program is concurrent, and a pair whose shared
// witness objects are all in that state cannot be a real race: the
// pair's racing write is one of its own two summary-visible accesses.
//
// The timeline is the one the MHP fork/join analysis places its events on
// (relay.Report.MainTimeline): the top-level statement order of main is a
// sequential timeline; each statement's call closure (spawn edges
// excluded) tells which functions run as part of it. This check needs
// only one event on it: the smallest top-level index at which a spawn may
// execute. Writes are classified against it:
//
//   - a write materialized at a non-main root runs on a child thread —
//     post-spawn by definition;
//   - a write in main's own body is pre-spawn iff its top-level index is
//     strictly below the first-spawn index (a statement that both spawns
//     and writes is post-spawn: intra-statement order is not modeled);
//   - a write in a function main calls is pre-spawn iff every top-level
//     statement whose closure reaches that function lies strictly below
//     the first-spawn index.
//
// Every attribution gap fails closed to "written post-spawn": nodes
// missing from the index, functions with no reach set, or spawn sites
// that cannot be placed on the timeline (then firstSpawn is -1 and
// everything is post-spawn).
type timeline struct {
	rep  *relay.Report
	main *types.FuncInfo

	// topIdx and reach are main's timeline (relay.Report.MainTimeline):
	// the top-level statement index of every node in main's body, and
	// per function the top-level statements whose call closure reaches it.
	topIdx map[ast.NodeID]int
	reach  map[*types.FuncInfo]map[int]bool

	// firstSpawn is the smallest main top-level index under which a spawn
	// may execute; -1 means "unknown — treat everything as post-spawn".
	// The first thread creation in any execution is performed by main
	// (no other thread exists yet), so the minimum over main-attributable
	// spawn positions bounds every spawn, including ones that later run
	// on child threads.
	firstSpawn int
}

func newTimeline(rep *relay.Report, main *types.FuncInfo) *timeline {
	tl := &timeline{rep: rep, main: main}
	tl.topIdx, tl.reach = rep.MainTimeline(main)
	tl.findFirstSpawn()
	return tl
}

// findFirstSpawn places every spawn edge on main's timeline: a site in
// main's own body sits at its top-level index; a site inside another
// function may execute under every top-level statement whose closure
// reaches that function. If any spawn edge cannot be attributed, the
// whole timeline is distrusted (firstSpawn = -1).
func (tl *timeline) findFirstSpawn() {
	tl.firstSpawn = -1
	any := false
	min := -1
	consider := func(idx int) {
		if min < 0 || idx < min {
			min = idx
		}
	}
	seenSite := make(map[ast.NodeID]bool)
	for _, e := range tl.rep.CG.Edges {
		if !e.Spawn || seenSite[e.Site.ID()] {
			continue
		}
		seenSite[e.Site.ID()] = true
		any = true
		if idx, in := tl.topIdx[e.Site.ID()]; in {
			consider(idx)
			continue
		}
		// The site is inside some function: it may run under any main
		// statement reaching its lexical container. A spawn-containing
		// function reachable only through other threads is still bounded
		// below by the main-attributable minimum — but if *no* spawn is
		// attributable the bound is unknown, handled below.
		set := tl.reach[e.Caller]
		if len(set) == 0 {
			continue
		}
		for idx := range set {
			consider(idx)
		}
	}
	if !any {
		// No spawns at all: no second thread ever exists. RELAY reports
		// no pairs for such programs, but keep the math consistent: every
		// write is "pre-spawn" against an infinite first-spawn index.
		tl.firstSpawn = len(tl.main.Decl.Body.Stmts)
		return
	}
	if min < 0 {
		return // spawns exist but none attributable: fail closed
	}
	tl.firstSpawn = min
}

// postSpawnWrites classifies every materialized write access and returns
// the set of objects with at least one write not proven pre-spawn.
func (tl *timeline) postSpawnWrites(accs []relay.RootAccess) map[pointsto.ObjID]bool {
	written := make(map[pointsto.ObjID]bool)
	markAll := func(objs []pointsto.ObjID) {
		for _, o := range objs {
			written[o] = true
		}
	}
	for _, ra := range accs {
		if !ra.Acc.Write {
			continue
		}
		if ra.Root != tl.main || tl.firstSpawn < 0 {
			markAll(ra.Acc.Objs)
			continue
		}
		if ra.Acc.Fn == tl.main {
			idx, in := tl.topIdx[ra.Acc.Node]
			if !in || idx >= tl.firstSpawn {
				markAll(ra.Acc.Objs)
			}
			continue
		}
		set := tl.reach[ra.Acc.Fn]
		if len(set) == 0 {
			markAll(ra.Acc.Objs)
			continue
		}
		for idx := range set {
			if idx >= tl.firstSpawn {
				markAll(ra.Acc.Objs)
				break
			}
		}
	}
	return written
}
