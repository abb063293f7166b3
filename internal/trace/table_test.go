package trace

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/minic/ast"
	"repro/internal/vm"
)

// spansInUse counts the directory spans a table has allocated.
func spansInUse[T any](t *table[T]) int {
	n := 0
	for _, s := range t.dir {
		if s != nil {
			n++
		}
	}
	return n
}

// TestTableBoundaries writes a distinct value at each key on either side
// of a page boundary, a span boundary and the directory bound, then reads
// every one back: no two keys may share a cell, and a key's cell must
// stay the same across lookups.
func TestTableBoundaries(t *testing.T) {
	var keys []int64
	for _, b := range []int64{pageCells, 2 * pageCells, 1 << spanShift, 3 << spanShift, pagedKeys} {
		keys = append(keys, b-1, b, b+1)
	}
	keys = append(keys, 0)
	var tb table[int64]
	for i, k := range keys {
		if got := *tb.at(k); got != 0 {
			t.Fatalf("fresh cell %d = %d, want the zero value", k, got)
		}
		*tb.at(k) = int64(i + 1)
	}
	for i, k := range keys {
		if got := *tb.at(k); got != int64(i+1) {
			t.Errorf("cell %d = %d, want %d", k, got, i+1)
		}
	}
	// Spans 0 to 3 and the last one; pagedKeys and pagedKeys+1 are not
	// paged.
	if n := spansInUse(&tb); n != 5 {
		t.Errorf("%d spans allocated, want 5", n)
	}
	if len(tb.other) != 2 {
		t.Errorf("fallback holds %d keys, want 2 (pagedKeys and pagedKeys+1)", len(tb.other))
	}
}

// TestTableFallbackKeys checks that keys outside the directory — negative,
// at the bound, huge — land in the fallback map without allocating any
// span, so no key can size the directory.
func TestTableFallbackKeys(t *testing.T) {
	var tb table[ecell]
	keys := []int64{-1, math.MinInt64, math.MaxInt64, pagedKeys, 1 << 40}
	for i, k := range keys {
		tb.at(k).w.node = 100 + ast.NodeID(i)
	}
	for i, k := range keys {
		if got := tb.at(k).w.node; got != 100+ast.NodeID(i) {
			t.Errorf("cell %d: node %d, want %d", k, got, 100+i)
		}
	}
	if n := spansInUse(&tb); n != 0 {
		t.Errorf("fallback keys allocated %d spans", n)
	}
	if len(tb.other) != len(keys) {
		t.Errorf("fallback holds %d keys, want %d", len(tb.other), len(keys))
	}
	if a := testing.AllocsPerRun(10, func() { tb.at(math.MaxInt64) }); a != 0 {
		t.Errorf("repeat lookup of a fallback key allocated %v times", a)
	}

	var h hbState
	key := vm.SyncKey{Class: vm.SyncClass(200), ID: 5}
	h.syncEvent(key, vm.EvRelease, 0)
	h.syncEvent(key, vm.EvAcquire, 1)
	if len(h.objOther) != 1 {
		t.Fatalf("unknown-class key: %d fallback clocks, want 1", len(h.objOther))
	}
	if !(*h.vc(1)).covers(0, 1) {
		t.Errorf("acquire of an unknown-class object lost its release: t1 clock %v", *h.vc(1))
	}
	for c := range h.obj {
		if n := spansInUse(&h.obj[c]); n != 0 {
			t.Errorf("unknown-class key allocated %d spans in class %d's table", n, c)
		}
	}
}

// TestCheckerFixedCost bounds what a checker allocates beyond the cell
// pages it touches. A run touches the globals, the heap and the stacks,
// which sit ≈4.4 M words above the globals; a flat directory of 256-cell
// pages over that span would cost ≈140 KB of pointers per table before
// the first page.
func TestCheckerFixedCost(t *testing.T) {
	const flatDirectory = (4_400_000 / pageCells) * 8
	addrs := []int64{vm.GlobalBase, vm.GlobalBase + 70_000, 4_400_000}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewChecker(0)
	c.SyncEvent(vm.SyncKey{Class: vm.SyncSpawn, ID: 1}, vm.EvSpawn, 0, 0)
	for _, a := range addrs {
		c.Access(0, a, true, 1, 0)
		c.Access(1, a, false, 2, 0)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)

	total := after.TotalAlloc - before.TotalAlloc
	pages := uint64(len(addrs)) * uint64(unsafe.Sizeof([pageCells]ecell{}))
	t.Logf("checker allocated %d B: %d B of cell pages, %d B else; flat directory %d B",
		total, pages, total-pages, flatDirectory)
	if total < pages || total-pages > flatDirectory/4 {
		t.Errorf("checker allocated %d B beyond its %d B of cell pages, want under %d B",
			total-pages, pages, flatDirectory/4)
	}
}

// TestCellSizes pins the cell layouts: a page of shadow cells is what a
// touched region costs.
func TestCellSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"access", unsafe.Sizeof(access{}), 16},
		{"ecell", unsafe.Sizeof(ecell{}), 64},
		{"vcCell", unsafe.Sizeof(vcCell{}), 48},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestSyncEventGrowsBeforeJoin covers the two joins whose argument names
// a thread the checker has not seen: reading it grows the thread table,
// and the join must land in the grown table.
func TestSyncEventGrowsBeforeJoin(t *testing.T) {
	var h hbState
	h.syncEvent(vm.SyncKey{Class: vm.SyncSpawn, ID: 7}, vm.EvJoin, 0)
	if v := *h.vc(0); !v.covers(7, 1) {
		t.Errorf("join of unseen thread 7: thread 0 clock %v lacks component 7", v)
	}

	h = hbState{}
	h.syncEvent(vm.SyncKey{Class: vm.SyncSpawn, ID: 1}, vm.EvSpawn, 5)
	if v := *h.vc(1); !v.covers(5, 1) {
		t.Errorf("spawn of thread 1 by unseen thread 5: child clock %v lacks the parent's epoch", v)
	}
}
