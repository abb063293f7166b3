package trace

import (
	"time"

	"repro/internal/minic/ast"
	"repro/internal/vm"
)

// ecell is the adaptive shadow state of one address (FastTrack, PLDI
// 2009): the last write is always a single epoch; reads are a single
// epoch (hasR) until genuinely concurrent reads force promotion to a
// per-thread read vector (reads, non-empty iff promoted). A write demotes
// the cell back to epoch mode.
type ecell struct {
	w     access
	r     access   // read epoch; valid iff hasR and len(reads) == 0
	reads []access // promoted read vector: latest read per thread
	hasW  bool
	hasR  bool
}

// EpochChecker is the FastTrack-style happens-before race checker: the
// default production checker behind NewChecker. It reports exactly the
// same race verdicts as the full-vector VectorChecker oracle (the
// differential test layer pins this) while doing O(1) work on the
// overwhelmingly common access shapes:
//
//   - same-epoch re-access (a statement re-executed with no intervening
//     synchronization — every tight loop): no vector-clock work at all;
//   - thread-local and exchange-ordered read sequences: a single read
//     epoch is updated in place instead of growing a read set;
//   - read vectors exist only for addresses with genuinely concurrent
//     readers, and a write resets them to epoch mode.
//
// Epoch discards are verdict-preserving by happens-before transitivity: a
// read epoch r1 is only dropped in favour of r2 when r1 ≤ r2 and both
// denote the same source node, so any write racing r1 also races r2 and
// reports the identical (node, node) pair.
type EpochChecker struct {
	hb     hbState
	shadow table[ecell] // by word address
	rep    reporter

	wall int64 // accumulated nanoseconds spent draining event batches
}

// NewChecker returns the production happens-before checker (adaptive
// FastTrack epochs); at most maxRaces distinct (node, node) races are
// retained (0 means a generous default). Use NewVectorChecker for the
// full-vector differential oracle.
func NewChecker(maxRaces int) *EpochChecker {
	return &EpochChecker{rep: newReporter(maxRaces)}
}

// Races returns the distinct races found, ordered.
func (c *EpochChecker) Races() []Race { return c.rep.sorted() }

// RaceCount returns the number of distinct races.
func (c *EpochChecker) RaceCount() int { return len(c.rep.races) }

// WallNS returns the cumulative wall-clock nanoseconds this checker spent
// consuming event batches (the harness's checker_wall_ns metric and the
// obs report's checker.wall_ns). Only
// batched delivery through Drain is timed; direct Access/SyncEvent calls
// are for tests.
func (c *EpochChecker) WallNS() int64 { return c.wall }

// Err returns the first event rejected for naming a thread outside
// [0, MaxThreads), or nil.
func (c *EpochChecker) Err() error { return c.hb.err }

// Access observes one shared-memory access.
func (c *EpochChecker) Access(tid int, addr int64, write bool, node ast.NodeID, clock int64) {
	if !validTid(int64(tid)) {
		c.hb.reject(int64(tid), "access")
		return
	}
	s := c.shadow.at(addr)
	cur := access{tid: int32(tid), clk: c.hb.clockOf(tid), node: node}

	if write {
		// Same-epoch write fast path: the identical statement already
		// wrote at this epoch and no reads intervened — the shadow state
		// would be rewritten unchanged and every race check was already
		// performed (and deduplicated) the first time.
		if s.hasW && s.w == cur && !s.hasR && len(s.reads) == 0 {
			return
		}
		v := *c.hb.vc(tid)
		if s.hasW && s.w.tid != cur.tid && !v.covers(s.w.tid, s.w.clk) {
			c.rep.report(addr, s.w, true, cur, true)
		}
		if len(s.reads) > 0 {
			for _, rd := range s.reads {
				if rd.tid != cur.tid && !v.covers(rd.tid, rd.clk) {
					c.rep.report(addr, rd, false, cur, true)
				}
			}
		} else if s.hasR {
			if s.r.tid != cur.tid && !v.covers(s.r.tid, s.r.clk) {
				c.rep.report(addr, s.r, false, cur, true)
			}
		}
		s.w = cur
		s.hasW = true
		s.hasR = false
		s.reads = s.reads[:0]
		return
	}

	// Same-epoch read fast paths: the identical read already happened at
	// this epoch, so the write check was already performed with the same
	// node pair and the stored state would not change.
	if len(s.reads) == 0 {
		if s.hasR && s.r == cur {
			return
		}
	} else {
		for i := range s.reads {
			if s.reads[i] == cur {
				return
			}
		}
	}

	v := *c.hb.vc(tid)
	if s.hasW && s.w.tid != cur.tid && !v.covers(s.w.tid, s.w.clk) {
		c.rep.report(addr, s.w, true, cur, false)
	}

	if len(s.reads) > 0 {
		// Promoted: latest read per thread, exactly the oracle's set.
		for i := range s.reads {
			if s.reads[i].tid == cur.tid {
				s.reads[i] = cur
				return
			}
		}
		s.reads = append(s.reads, cur)
		return
	}
	if !s.hasR {
		s.r = cur
		s.hasR = true
		return
	}
	if s.r.tid == cur.tid {
		s.r = cur // thread's own newer read epoch
		return
	}
	// FastTrack's exclusive-read transfer, restricted to the
	// verdict-preserving case: the previous epoch is ordered before this
	// read AND names the same source node, so dropping it loses no
	// reportable pair (any write racing the old epoch races the new one,
	// with the same nodes).
	if s.r.node == node && v.covers(s.r.tid, s.r.clk) {
		s.r = cur
		return
	}
	// Genuinely concurrent (or differently-attributed) reads: promote.
	s.reads = append(s.reads, s.r, cur)
	s.hasR = false
}

// SyncEvent observes one synchronization operation.
func (c *EpochChecker) SyncEvent(key vm.SyncKey, kind vm.SyncEventKind, tid int, clock int64) {
	c.hb.syncEvent(key, kind, tid)
}

// Drain implements vm.EventSink: consume one batch in program order.
func (c *EpochChecker) Drain(events []vm.Event) {
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
