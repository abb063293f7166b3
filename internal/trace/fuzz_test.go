package trace

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/minic/ast"
	"repro/internal/vm"
)

// fuzzKeys is the palette addresses and sync IDs are drawn from: the
// edges of pages, spans and the directory, where the VM puts globals,
// heap and stacks, and keys the VM never emits as addresses.
var fuzzKeys = []int64{
	pageCells - 1, pageCells, pageCells + 1,
	1<<spanShift - 1, 1 << spanShift, 1<<spanShift + 1,
	vm.GlobalBase, vm.GlobalBase + vm.DefaultHeapWords/2, 4_400_000, 4_400_001,
	pagedKeys - 1, pagedKeys, pagedKeys + 1,
	-1, math.MinInt64, math.MaxInt64,
}

// fuzzClasses are every sync class plus one the VM does not define.
var fuzzClasses = []vm.SyncClass{
	vm.SyncMutex, vm.SyncBarrier, vm.SyncCond, vm.SyncWeakLock, vm.SyncSpawn, 200,
}

// fuzzObjectKinds are every sync kind that names an object (spawn and
// join name a thread instead).
var fuzzObjectKinds = []vm.SyncEventKind{
	vm.EvAcquire, vm.EvRelease, vm.EvBarrierArrive, vm.EvCondWait,
	vm.EvCondSignal, vm.EvCondBcast, vm.EvWLAcquire, vm.EvWLRelease,
	vm.EvWLForcedRelease, vm.EvBarrierRelease, vm.EvCondWake,
}

// fuzzMaxThreads bounds the thread IDs a decoded stream spawns.
const fuzzMaxThreads = 16

// decodeEvents turns fuzz bytes into an event stream that keeps the VM's
// thread lifecycle: thread 0 runs first, a child emits only after its
// spawn and child IDs increase, and a join names a live thread other
// than the joiner, which emits nothing afterwards. (FastTrack's epoch
// test trusts that a joined thread is done, so a stream that breaks
// this can split the two checkers without either being wrong.) Each
// event takes four bytes; the top bit of the first cuts a Drain batch
// before the event, and cuts returns the batch boundaries.
func decodeEvents(data []byte) (events []vm.Event, cuts []int) {
	live := []int32{0}
	next := int64(1)
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, c := data[0], data[1], data[2], data[3]
		if op&0x80 != 0 {
			cuts = append(cuts, len(events))
		}
		tid := live[int(a)%len(live)]
		switch k := op & 0x7f % 5; k {
		case 0, 1: // read, write
			kind := vm.EventRead
			if k == 1 {
				kind = vm.EventWrite
			}
			events = append(events, vm.Event{Kind: kind, Tid: tid,
				Addr: fuzzKeys[int(b)%len(fuzzKeys)], Node: ast.NodeID(1 + c%8)})
		case 2: // an operation on a sync object
			events = append(events, vm.Event{Kind: vm.EventSync, Tid: tid,
				Sync:  fuzzObjectKinds[int(b)%len(fuzzObjectKinds)],
				Class: fuzzClasses[int(b)/len(fuzzObjectKinds)%len(fuzzClasses)],
				Addr:  fuzzKeys[int(c)%len(fuzzKeys)]})
		case 3: // spawn, skipping up to two IDs
			child := next + int64(b%3)
			if child >= fuzzMaxThreads {
				continue
			}
			next = child + 1
			live = append(live, int32(child))
			events = append(events, vm.Event{Kind: vm.EventSync, Tid: tid,
				Sync: vm.EvSpawn, Class: vm.SyncSpawn, Addr: child})
		case 4: // join another live thread
			if len(live) < 2 {
				continue
			}
			i := int(b) % (len(live) - 1)
			if live[i] == tid {
				i = len(live) - 1
			}
			child := live[i]
			live = append(live[:i], live[i+1:]...)
			events = append(events, vm.Event{Kind: vm.EventSync, Tid: tid,
				Sync: vm.EvJoin, Class: vm.SyncSpawn, Addr: int64(child)})
		}
	}
	return events, cuts
}

// feed delivers events one at a time through Access and SyncEvent.
func feed(c RaceChecker, events []vm.Event) {
	for _, e := range events {
		switch e.Kind {
		case vm.EventRead:
			c.Access(int(e.Tid), e.Addr, false, e.Node, e.Clock)
		case vm.EventWrite:
			c.Access(int(e.Tid), e.Addr, true, e.Node, e.Clock)
		case vm.EventSync:
			c.SyncEvent(e.Key(), e.Sync, int(e.Tid), e.Clock)
		}
	}
}

// drain delivers events through Drain, in batches ending at cuts.
func drain(c RaceChecker, events []vm.Event, cuts []int) {
	from := 0
	for _, to := range cuts {
		c.Drain(events[from:to])
		from = to
	}
	c.Drain(events[from:])
}

// FuzzCheckerDifferential drives both checkers with decoded event
// streams: neither may panic, their verdict sets must be equal, and
// batched delivery through Drain must report exactly the races that
// event-at-a-time delivery does.
func FuzzCheckerDifferential(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 6, 1, 0, 1, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, cuts := decodeEvents(data)
		ep, vc := NewChecker(0), NewVectorChecker(0)
		feed(ep, events)
		feed(vc, events)
		if !reflect.DeepEqual(VerdictSet(ep.Races()), VerdictSet(vc.Races())) {
			t.Fatalf("verdicts diverged\nepoch:  %v\nvector: %v", ep.Races(), vc.Races())
		}
		for _, pair := range [][2]RaceChecker{{ep, NewChecker(0)}, {vc, NewVectorChecker(0)}} {
			one, batched := pair[0], pair[1]
			drain(batched, events, cuts)
			if !reflect.DeepEqual(one.Races(), batched.Races()) {
				t.Fatalf("%T: Drain over batches %v reported %v, one event at a time %v",
					one, cuts, batched.Races(), one.Races())
			}
		}
	})
}
