package vm

import "repro/internal/minic/ast"

// The event-sink runtime: the interpreter hot loop appends observation
// events (memory accesses and synchronization operations) to a flat
// append-only buffer instead of making an interface call per event, and
// the buffer is drained to every registered EventSink when it fills and at
// quiescence points. Observers pay one interface dispatch per *batch*
// instead of one per memory access, which is what makes always-on dynamic
// checking (the happens-before race checker) affordable on the record and
// replay paths.
//
// Events are delivered in exact program (simulated-interleaving) order:
// the machine is single-threaded, accesses and sync operations share one
// buffer, and a drain never reorders. An observer that replays the stream
// therefore sees precisely what the old per-call hooks saw.

// EventKind discriminates buffered observation events.
type EventKind uint8

// The buffered event kinds.
const (
	// EventRead and EventWrite are shared-memory accesses; Addr, Node,
	// Tid and Clock are valid.
	EventRead EventKind = iota
	EventWrite
	// EventSync is a synchronization operation; Class+Addr form the
	// SyncKey, and Sync carries the operation kind.
	EventSync
)

// Event is one buffered observation. It is a flat union: access events use
// Addr/Node, sync events use Class/Addr (the SyncKey) and Sync.
type Event struct {
	Kind  EventKind
	Sync  SyncEventKind // EventSync only
	Class SyncClass     // EventSync only: SyncKey.Class
	Tid   int32
	Addr  int64 // access address, or SyncKey.ID for EventSync
	Node  ast.NodeID
	Clock int64
}

// Key reconstructs the sync key of an EventSync event.
func (e Event) Key() SyncKey { return SyncKey{Class: e.Class, ID: e.Addr} }

// EventSink consumes batches of observation events in program order. The
// batch slice is reused between drains; implementations must not retain
// it past the call.
type EventSink interface {
	Drain(events []Event)
}

// EventBatchSize is the buffer capacity: large enough to amortize the
// per-batch dispatch, small enough to stay cache-resident.
const EventBatchSize = 4096

// emitAccess buffers one memory access. Callers gate on m.observing so
// un-observed runs pay only a branch.
func (m *machine) emitAccess(tid int, addr int64, write bool, node ast.NodeID, clock int64) {
	k := EventRead
	if write {
		k = EventWrite
	}
	m.events = append(m.events, Event{Kind: k, Tid: int32(tid), Addr: addr, Node: node, Clock: clock})
	if len(m.events) == cap(m.events) {
		m.flushEvents()
	}
}

// emitSync buffers one synchronization operation.
func (m *machine) emitSync(key SyncKey, kind SyncEventKind, tid int, clock int64) {
	m.events = append(m.events, Event{
		Kind: EventSync, Sync: kind, Class: key.Class,
		Tid: int32(tid), Addr: key.ID, Clock: clock,
	})
	if len(m.events) == cap(m.events) {
		m.flushEvents()
	}
}

// flushEvents drains the buffer to every sink, in registration order.
// Emission accounting happens here, once per batch, so the per-event
// emit paths stay counter-free.
func (m *machine) flushEvents() {
	if len(m.events) == 0 {
		return
	}
	m.counters.EventsEmitted += int64(len(m.events))
	m.counters.EventBatches++
	for _, s := range m.sinks {
		s.Drain(m.events)
	}
	m.events = m.events[:0]
}
