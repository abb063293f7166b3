// Package trace implements a dynamic happens-before data-race checker over
// the VM's batched observation event stream. Two interchangeable checkers
// share one verdict semantics:
//
//   - EpochChecker (the default, NewChecker) uses FastTrack-style adaptive
//     epochs (Flanagan & Freund, PLDI 2009): the last write is a single
//     epoch, reads are a single epoch that is promoted to a per-thread
//     read vector only when genuinely concurrent reads appear, and
//     same-epoch re-accesses take an O(1) fast path with no vector-clock
//     comparison at all.
//   - VectorChecker (NewVectorChecker) is the original full-vector
//     implementation, kept as the oracle for differential testing: on any
//     event stream both checkers report exactly the same set of racy
//     (node, node) pairs and the same race-free verdicts.
//
// Its role in the reproduction is validation: the checker must find races
// in the original benchmarks, and must find *none* in the
// Chimera-instrumented versions under the extended synchronization set —
// the paper's core claim that "programs transformed by Chimera are
// data-race-free under the new set of synchronization operations".
//
// One approximation is inherited from the weak-lock design: two loop-locks
// holders with disjoint address ranges exchange no happens-before edge in
// reality, but this checker joins on the lock identity. That is the same
// granularity at which the recorder logs, so "race-free under the new sync
// set" is checked at exactly the level the replay guarantee needs. Both
// checkers implement it identically (hbState is shared).
package trace

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/minic/ast"
	"repro/internal/vm"
)

// VC is a vector clock.
type VC []uint32

func (v *VC) ensure(n int) {
	for len(*v) < n {
		*v = append(*v, 0)
	}
}

// join sets v = max(v, o) pointwise.
func (v *VC) join(o VC) {
	v.ensure(len(o))
	for i, c := range o {
		if c > (*v)[i] {
			(*v)[i] = c
		}
	}
}

// covers reports whether epoch (tid, clk) happens-before-or-equals v.
func (v VC) covers(tid int32, clk uint32) bool {
	if int(tid) >= len(v) {
		return clk == 0
	}
	return clk <= v[tid]
}

// Race is one detected data race.
type Race struct {
	Addr         int64
	NodeA, NodeB ast.NodeID
	TidA, TidB   int
	WriteA       bool
	WriteB       bool
}

// String renders the race.
func (r Race) String() string {
	k := func(w bool) string {
		if w {
			return "W"
		}
		return "R"
	}
	return fmt.Sprintf("race @%d: %s(node %d, t%d) vs %s(node %d, t%d)",
		r.Addr, k(r.WriteA), r.NodeA, r.TidA, k(r.WriteB), r.NodeB, r.TidB)
}

// access is one recorded access epoch: who, at what clock, at which
// source node.
type access struct {
	tid  int32
	clk  uint32
	node ast.NodeID
}

// RaceChecker is the common surface of both checker implementations: a VM
// observer (batched sink) that accumulates race verdicts. Access and
// SyncEvent consume one event each — Drain's per-event steps, exposed so
// differential tests can feed checkers a synthetic stream directly.
type RaceChecker interface {
	vm.EventSink
	Access(tid int, addr int64, write bool, node ast.NodeID, clock int64)
	SyncEvent(key vm.SyncKey, kind vm.SyncEventKind, tid int, clock int64)
	Races() []Race
	RaceCount() int
}

var (
	_ RaceChecker = (*EpochChecker)(nil)
	_ RaceChecker = (*VectorChecker)(nil)
)

// ---------------------------------------------------------------------------
// Shared happens-before state

// numSyncClasses counts the sync classes the VM defines; hbState keeps
// one clock table per class.
const numSyncClasses = int(vm.SyncSpawn) + 1

// hbState maintains the thread and sync-object vector clocks of the
// extended synchronization set. Both checkers delegate to it, so the
// happens-before relation — including the documented loop-lock
// lock-identity granularity — is identical by construction. An object
// never released has a nil clock, which an acquire joins as a no-op.
type hbState struct {
	vcs      []VC
	obj      [numSyncClasses]table[VC] // sync-object clocks per class, by ID
	objOther map[vm.SyncKey]*VC        // classes the VM does not define
}

// objVC returns the clock of sync object key.
func (h *hbState) objVC(key vm.SyncKey) *VC {
	if int(key.Class) < numSyncClasses {
		return h.obj[key.Class].at(key.ID)
	}
	o, ok := h.objOther[key]
	if !ok {
		if h.objOther == nil {
			h.objOther = make(map[vm.SyncKey]*VC)
		}
		o = new(VC)
		h.objOther[key] = o
	}
	return o
}

func (h *hbState) vc(tid int) *VC {
	for len(h.vcs) <= tid {
		t := len(h.vcs)
		v := make(VC, t+1)
		v[t] = 1
		h.vcs = append(h.vcs, v)
	}
	return &h.vcs[tid]
}

func (h *hbState) tick(tid int) {
	v := h.vc(tid)
	v.ensure(tid + 1)
	(*v)[tid]++
}

// clockOf returns thread tid's own component of its clock.
func (h *hbState) clockOf(tid int) uint32 {
	v := *h.vc(tid)
	if tid < len(v) {
		return v[tid]
	}
	return 0
}

// syncEvent maintains the happens-before relation of the extended
// synchronization set (original sync + weak-locks + spawn/join).
func (h *hbState) syncEvent(key vm.SyncKey, kind vm.SyncEventKind, tid int) {
	switch kind {
	case vm.EvAcquire, vm.EvWLAcquire, vm.EvCondWake, vm.EvBarrierRelease:
		// Acquire-like: thread joins the object's clock.
		o := *h.objVC(key)
		h.vc(tid).join(o)

	case vm.EvRelease, vm.EvWLRelease, vm.EvWLForcedRelease,
		vm.EvCondSignal, vm.EvCondBcast, vm.EvBarrierArrive:
		// Release-like: object joins the thread's clock; thread advances.
		h.objVC(key).join(*h.vc(tid))
		h.tick(tid)

	case vm.EvCondWait:
		// The mutex release is delivered separately; the wait itself
		// contributes no extra edge.

	// Spawn and join read the other thread's clock before taking the
	// receiver's address: h.vc may grow h.vcs, and a pointer taken
	// first would point into the old array.
	case vm.EvSpawn:
		// key.ID is the child tid: child starts after the parent's
		// current point.
		child := int(key.ID)
		parent := *h.vc(tid)
		h.vc(child).join(parent)
		h.tick(child) // child's own component
		h.tick(tid)

	case vm.EvJoin:
		child := *h.vc(int(key.ID))
		h.vc(tid).join(child)
	}
}

// ---------------------------------------------------------------------------
// Shared race reporting

// reporter deduplicates and retains race verdicts by (node, node) pair.
type reporter struct {
	races   []Race
	seen    map[[2]ast.NodeID]bool
	maxRace int
}

func newReporter(maxRaces int) reporter {
	if maxRaces == 0 {
		maxRaces = 10000
	}
	return reporter{seen: make(map[[2]ast.NodeID]bool), maxRace: maxRaces}
}

func (rp *reporter) report(addr int64, prev access, prevW bool, cur access, curW bool) {
	a, b := prev.node, cur.node
	if a > b {
		a, b = b, a
	}
	key := [2]ast.NodeID{a, b}
	if rp.seen[key] || len(rp.races) >= rp.maxRace {
		return
	}
	rp.seen[key] = true
	rp.races = append(rp.races, Race{
		Addr:  addr,
		NodeA: prev.node, NodeB: cur.node,
		TidA: int(prev.tid), TidB: int(cur.tid),
		WriteA: prevW, WriteB: curW,
	})
}

// sorted returns the distinct races, ordered by node pair.
func (rp *reporter) sorted() []Race {
	out := append([]Race{}, rp.races...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].NodeA != out[j].NodeA {
			return out[i].NodeA < out[j].NodeA
		}
		return out[i].NodeB < out[j].NodeB
	})
	return out
}

// ---------------------------------------------------------------------------
// VectorChecker: the full-vector oracle

// vcCell is the full shadow state of one address: the last write and the
// latest read of every thread since that write.
type vcCell struct {
	write access
	reads []access
	hasW  bool
}

// VectorChecker is the original full-vector happens-before checker, kept
// as the differential-testing oracle for EpochChecker. Every access does
// full vector-clock work against the complete read set; verdicts are the
// reference semantics.
type VectorChecker struct {
	hb     hbState
	shadow table[vcCell] // by word address
	rep    reporter

	wall int64 // accumulated nanoseconds spent draining event batches
}

// NewVectorChecker returns the full-vector oracle checker; at most
// maxRaces distinct (node, node) races are retained (0 means a generous
// default).
func NewVectorChecker(maxRaces int) *VectorChecker {
	return &VectorChecker{rep: newReporter(maxRaces)}
}

// Races returns the distinct races found, ordered.
func (c *VectorChecker) Races() []Race { return c.rep.sorted() }

// RaceCount returns the number of distinct races.
func (c *VectorChecker) RaceCount() int { return len(c.rep.races) }

// WallNS returns the cumulative wall-clock nanoseconds this checker spent
// consuming event batches, timed like EpochChecker.WallNS.
func (c *VectorChecker) WallNS() int64 { return c.wall }

// Access observes one shared-memory access.
func (c *VectorChecker) Access(tid int, addr int64, write bool, node ast.NodeID, clock int64) {
	v := *c.hb.vc(tid)
	cur := access{tid: int32(tid), clk: c.hb.clockOf(tid), node: node}
	s := c.shadow.at(addr)

	if write {
		if s.hasW && s.write.tid != cur.tid && !v.covers(s.write.tid, s.write.clk) {
			c.rep.report(addr, s.write, true, cur, true)
		}
		for _, rd := range s.reads {
			if rd.tid != cur.tid && !v.covers(rd.tid, rd.clk) {
				c.rep.report(addr, rd, false, cur, true)
			}
		}
		s.write = cur
		s.hasW = true
		s.reads = s.reads[:0]
		return
	}
	if s.hasW && s.write.tid != cur.tid && !v.covers(s.write.tid, s.write.clk) {
		c.rep.report(addr, s.write, true, cur, false)
	}
	// Keep at most one read epoch per thread (the latest).
	for i := range s.reads {
		if s.reads[i].tid == cur.tid {
			s.reads[i] = cur
			return
		}
	}
	s.reads = append(s.reads, cur)
}

// SyncEvent observes one synchronization operation.
func (c *VectorChecker) SyncEvent(key vm.SyncKey, kind vm.SyncEventKind, tid int, clock int64) {
	c.hb.syncEvent(key, kind, tid)
}

// Drain implements vm.EventSink.
func (c *VectorChecker) Drain(events []vm.Event) {
	start := time.Now()
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case vm.EventRead:
			c.Access(int(e.Tid), e.Addr, false, e.Node, e.Clock)
		case vm.EventWrite:
			c.Access(int(e.Tid), e.Addr, true, e.Node, e.Clock)
		case vm.EventSync:
			c.hb.syncEvent(e.Key(), e.Sync, int(e.Tid))
		}
	}
	c.wall += time.Since(start).Nanoseconds()
}
