// Package replay implements Chimera's record and replay runtime
// (paper §2.2, §6.1): the recorder logs all nondeterministic input (system
// call results) and the happens-before order of synchronization operations
// — the original program's sync plus the weak-locks the instrumenter added;
// the replayer feeds inputs back from the log and gates every sync
// operation so it occurs in its recorded order.
//
// For a program whose races are all guarded by weak-locks, this
// reproduces the recorded execution exactly: output, final memory and exit
// code bit-match. For a racy program recorded *without* weak-locks (the
// "DRF-only" baseline), replay under a different schedule seed can diverge
// — which is precisely the failure mode Chimera exists to close.
package replay

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/minic/types"
	"repro/internal/vm"
)

// Interface conformance: recorder and replayer both drive preemptions.
var (
	_ vm.SyncMonitor       = (*Recorder)(nil)
	_ vm.PreemptionMonitor = (*Recorder)(nil)
	_ vm.SyncMonitor       = (*Replayer)(nil)
	_ vm.PreemptionMonitor = (*Replayer)(nil)
	_ vm.InputProvider     = (*Recorder)(nil)
	_ vm.InputProvider     = (*Replayer)(nil)
)

// InputRec is one logged input operation result.
type InputRec struct {
	Op   types.BuiltinOp
	Val  int64
	Data []int64 // words deposited into the user buffer (read/recv)
}

// OrderRec is one logged synchronization event. Forced weak-lock
// preemptions (Kind == EvWLForcedRelease) additionally carry the anchor
// that lets replay inject the preemption at exactly the recorded point in
// the owner's execution.
type OrderRec struct {
	Tid    int32
	Kind   vm.SyncEventKind
	Anchor vm.ForcedAnchor
}

// Log is a complete recording: the CHIMLOG2 stream its recorder wrote,
// and that writer's record counts. Replay decodes the bytes
// (NewStreamReplayer); the counts answer record-count metrics without a
// decode.
type Log struct {
	data   []byte
	inputs int64
	counts orderCounts
}

// Bytes returns the recording's CHIMLOG2 stream. Callers must not modify
// it.
func (l *Log) Bytes() []byte { return l.data }

// InputCount returns the total number of logged input records.
func (l *Log) InputCount() int { return int(l.inputs) }

// OrderCount returns the total number of order records, optionally
// filtered by sync class.
func (l *Log) OrderCount(classes ...vm.SyncClass) int {
	n := int64(0)
	if len(classes) == 0 {
		for _, c := range l.counts.byClass {
			n += c
		}
	}
	for _, c := range classes {
		n += l.counts.byClass[c]
	}
	return int(n)
}

// KindCount returns the number of order records of one event kind.
func (l *Log) KindCount(kind vm.SyncEventKind) int { return int(l.counts.byKind[kind]) }

// ---------------------------------------------------------------------------
// Recorder

// Recorder implements vm.InputProvider and vm.SyncMonitor for a recording
// run: inputs come from the live simulated OS and are logged; sync commits
// are appended to the order log. Every record goes through one LogWriter,
// whose bytes are kept as the recording (Close) and teed to the caller's
// writer as they are flushed. Costs model the logging overhead.
type Recorder struct {
	live vm.LiveInputs
	cost vm.CostModel
	buf  bytes.Buffer
	lw   *LogWriter
}

// NewRecorder returns a recorder over the given OS. Its log also streams
// to w, when w is non-nil, while the run is still executing. Streaming
// adds no simulated cost — the CostModel already charges for logging.
func NewRecorder(os vm.OS, cost vm.CostModel, w io.Writer) *Recorder {
	if cost == (vm.CostModel{}) {
		cost = vm.DefaultCost()
	}
	r := &Recorder{live: vm.LiveInputs{OS: os}, cost: cost}
	var out io.Writer = &r.buf
	if w != nil {
		out = io.MultiWriter(&r.buf, w)
	}
	r.lw = NewLogWriter(out)
	return r
}

// Writer returns the recorder's LogWriter; its Stats are the ledger of
// the recording.
func (r *Recorder) Writer() *LogWriter { return r.lw }

// Close ends the recording: it closes the LogWriter and returns the bytes
// it wrote with its record counts, and the first write error.
func (r *Recorder) Close() (*Log, error) {
	err := r.lw.Close()
	return &Log{data: r.buf.Bytes(), inputs: r.lw.stats.InputRecords, counts: r.lw.counts}, err
}

// Input implements vm.InputProvider.
func (r *Recorder) Input(tid int, op types.BuiltinOp, args []int64, sendData []int64, now int64) (int64, []int64, int64, int64, error) {
	val, data, ready, _, err := r.live.Input(tid, op, args, sendData, now)
	if err != nil {
		return 0, nil, now, 0, err
	}
	r.lw.Input(tid, InputRec{Op: op, Val: val, Data: data})
	cost := r.cost.LogEvent + r.cost.LogWord*int64(len(data))
	return val, data, ready, cost, nil
}

// TryProceed implements vm.SyncMonitor: recording never blocks.
func (r *Recorder) TryProceed(key vm.SyncKey, kind vm.SyncEventKind, tid int) bool { return true }

// Commit implements vm.SyncMonitor: append to the order log.
func (r *Recorder) Commit(key vm.SyncKey, kind vm.SyncEventKind, tid int, now int64) int64 {
	r.lw.Order(key, OrderRec{Tid: int32(tid), Kind: kind})
	return r.cost.LogEvent
}

// CommitForced implements vm.PreemptionMonitor: log the forced release
// together with its deterministic anchor (paper §2.3's planned DoublePlay
// mechanism, here fully implemented).
func (r *Recorder) CommitForced(key vm.SyncKey, tid int, anchor vm.ForcedAnchor, now int64) int64 {
	r.lw.Order(key, OrderRec{Tid: int32(tid), Kind: vm.EvWLForcedRelease, Anchor: anchor})
	return r.cost.LogEvent
}

// NextForced implements vm.PreemptionMonitor: recorders schedule nothing.
func (r *Recorder) NextForced(tid int) (vm.SyncKey, vm.ForcedAnchor, bool) {
	return vm.SyncKey{}, vm.ForcedAnchor{}, false
}

// ---------------------------------------------------------------------------
// Replayer

// Replayer implements vm.InputProvider and vm.SyncMonitor for a replay run:
// inputs are fed from the log with no device wait (paper §7.2: network
// applications "replay much faster as we feed the recorded input directly"),
// and sync operations are gated to their recorded order.
//
// It consumes per-thread input queues and per-key order queues, which it
// fills lazily from a chunked log stream through two cursors, one over the
// input chunks and one over the order chunks. A queue is topped up only
// from its own cursor, so memory is bounded by how far the replayed
// schedule runs ahead of the stream's commit order, not by the recording's
// length, nor by how the writer interleaved the two kinds of chunk.
type Replayer struct {
	in, ord *LogCursor
	cost    vm.CostModel
	// Queues are held by pointer so each hot method looks its queue up
	// once and consumes a record with no map write.
	inputQ map[int]*queue[InputRec]
	orderQ map[vm.SyncKey]*queue[OrderRec]
	// wlQ holds the order queues of weak-lock keys with IDs below
	// wlQueueSlots, by ID, so the per-acquire gate does no hashing; every
	// other key, and any larger ID a log names, is in orderQ.
	wlQ [wlQueueSlots]queue[OrderRec]

	// forced holds each thread's scheduled preemptions in order.
	forced map[int][]forcedRec
	err    error
}

// wlQueueSlots bounds the weak-lock IDs whose order queues have a slot.
// The largest lock table of the benchmarks has a handful of locks; the
// bound is fixed, so no allocation is ever sized by an ID read from a log.
const wlQueueSlots = 256

type forcedRec struct {
	key    vm.SyncKey
	anchor vm.ForcedAnchor
}

// queue is a FIFO of decoded records, consumed from head. A push that
// finds the buffer full first moves the waiting records to its front, so
// the buffer grows only with the records waiting at once.
type queue[T any] struct {
	buf  []T
	head int
}

func (q *queue[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// front returns the oldest waiting record; the queue must not be empty.
func (q *queue[T]) front() *T { return &q.buf[q.head] }

func (q *queue[T]) pop()     { q.head++ }
func (q *queue[T]) len() int { return len(q.buf) - q.head }

// NewStreamReplayer returns a replayer over a CHIMLOG2 stream, such as a
// Log's Bytes or an on-disk spool. Construction prescans the whole stream
// once, verifying every chunk, for forced weak-lock preemptions — the VM
// needs each thread's next preemption anchor up front (NextForced), which
// no finite lookahead bounds. A thread's anchors never decrease in commit
// order, so the prescan schedules them in the order it reads them. Replay
// then decodes incrementally, verifying each chunk's CRC before trusting
// its records.
func NewStreamReplayer(ra io.ReaderAt, cost vm.CostModel) (*Replayer, error) {
	if cost == (vm.CostModel{}) {
		cost = vm.DefaultCost()
	}
	r := &Replayer{
		cost:   cost,
		inputQ: make(map[int]*queue[InputRec]),
		orderQ: make(map[vm.SyncKey]*queue[OrderRec]),
		forced: make(map[int][]forcedRec),
	}
	pre := NewLogCursor(stream(ra))
	for {
		err := pre.advance()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if rec := &pre.rec; !rec.IsInput && rec.Order.Kind == vm.EvWLForcedRelease {
			tid := int(rec.Order.Tid)
			r.forced[tid] = append(r.forced[tid], forcedRec{key: rec.Key, anchor: rec.Order.Anchor})
		}
	}
	r.in = &LogCursor{r: stream(ra), only: chunkInput}
	r.ord = &LogCursor{r: stream(ra), only: chunkOrder}
	return r, nil
}

// stream returns a reader over ra from its start, with its own offset.
func stream(ra io.ReaderAt) io.Reader { return io.NewSectionReader(ra, 0, math.MaxInt64) }

// advance decodes c's next record into c.rec; false at the end of c's
// stream, and on a corrupt stream, whose error it records.
func (r *Replayer) advance(c *LogCursor) bool {
	if r.err != nil {
		return false
	}
	if err := c.advance(); err != nil {
		if err != io.EOF {
			r.err = err
		}
		return false
	}
	return true
}

// pullInput decodes one more input record into its thread's queue.
func (r *Replayer) pullInput() bool {
	if !r.advance(r.in) {
		return false
	}
	rec := &r.in.rec
	q := r.inputQ[rec.Tid]
	if q == nil {
		q = new(queue[InputRec])
		r.inputQ[rec.Tid] = q
	}
	q.push(rec.Input)
	return true
}

// pullOrder decodes one more order record into its key's queue.
func (r *Replayer) pullOrder() bool {
	if !r.advance(r.ord) {
		return false
	}
	rec := &r.ord.rec
	q := r.orderQueue(rec.Key)
	if q == nil {
		q = new(queue[OrderRec])
		r.orderQ[rec.Key] = q
	}
	q.push(rec.Order)
	return true
}

// orderQueue returns key's order queue: its wlQ slot for a weak-lock key
// with an ID below wlQueueSlots, else its orderQ entry (nil if none yet).
func (r *Replayer) orderQueue(key vm.SyncKey) *queue[OrderRec] {
	if key.Class == vm.SyncWeakLock && key.ID >= 0 && key.ID < wlQueueSlots {
		return &r.wlQ[key.ID]
	}
	return r.orderQ[key]
}

// inputs returns tid's input queue holding at least one record, or nil
// when the log has no more input for tid.
func (r *Replayer) inputs(tid int) *queue[InputRec] {
	q := r.inputQ[tid]
	for q == nil || q.len() == 0 {
		if !r.pullInput() {
			return nil
		}
		q = r.inputQ[tid]
	}
	return q
}

// orders returns key's order queue holding at least one record, or nil
// when the log has no more records on key.
func (r *Replayer) orders(key vm.SyncKey) *queue[OrderRec] {
	q := r.orderQueue(key)
	for q == nil || q.len() == 0 {
		if !r.pullOrder() {
			return nil
		}
		q = r.orderQueue(key)
	}
	return q
}

// Err returns the first divergence or stream error detected, if any.
func (r *Replayer) Err() error { return r.err }

// diverge records a divergence; the VM surfaces it as a run error.
func (r *Replayer) diverge(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("replay divergence: "+format, args...)
	}
	return r.err
}

// Input implements vm.InputProvider.
func (r *Replayer) Input(tid int, op types.BuiltinOp, args []int64, sendData []int64, now int64) (int64, []int64, int64, int64, error) {
	q := r.inputs(tid)
	if q == nil {
		return 0, nil, now, 0, r.diverge("thread %d performed more input ops than recorded (%s)", tid, types.BuiltinName(op))
	}
	rec := *q.front()
	if rec.Op != op {
		return 0, nil, now, 0, r.diverge("thread %d input op mismatch: got %s, recorded %s",
			tid, types.BuiltinName(op), types.BuiltinName(rec.Op))
	}
	// A live read or recv returns at most the requested words; a longer
	// record would overrun the user buffer.
	if (op == types.BRead || op == types.BRecv) && len(rec.Data) > 0 && int64(len(rec.Data)) > args[2] {
		return 0, nil, now, 0, r.diverge("thread %d %s record carries %d words for a %d-word request",
			tid, types.BuiltinName(op), len(rec.Data), args[2])
	}
	q.pop()
	// No device wait: results come straight from the log.
	return rec.Val, rec.Data, now, r.cost.ReplayGate, nil
}

// TryProceed implements vm.SyncMonitor: a thread may proceed only when it
// is the next recorded actor on the object.
func (r *Replayer) TryProceed(key vm.SyncKey, kind vm.SyncEventKind, tid int) bool {
	q := r.orders(key)
	if q == nil {
		// More sync ops than recorded: divergence. Refusing forever would
		// surface as a deadlock; record the real cause.
		r.diverge("extra %s op on %s by thread %d", kind, key, tid)
		return false
	}
	return q.front().Tid == int32(tid)
}

// Commit implements vm.SyncMonitor: consume the head record on the key.
func (r *Replayer) Commit(key vm.SyncKey, kind vm.SyncEventKind, tid int, now int64) int64 {
	q := r.orders(key)
	if q == nil || q.front().Tid != int32(tid) {
		r.diverge("commit out of order on %s by thread %d", key, tid)
		return r.cost.ReplayGate
	}
	if got := q.front().Kind; got != kind {
		r.diverge("op kind mismatch on %s: got %s, recorded %s", key, kind, got)
	}
	q.pop()
	return r.cost.ReplayGate
}

// CommitForced implements vm.PreemptionMonitor: consume the head forced
// record on the key and the thread's schedule.
func (r *Replayer) CommitForced(key vm.SyncKey, tid int, anchor vm.ForcedAnchor, now int64) int64 {
	q := r.orders(key)
	if q == nil || q.front().Kind != vm.EvWLForcedRelease || q.front().Tid != int32(tid) {
		r.diverge("forced preemption on %s by thread %d not next in the log", key, tid)
		return r.cost.ReplayGate
	}
	q.pop()
	if f := r.forced[tid]; len(f) > 0 {
		r.forced[tid] = f[1:]
	}
	return r.cost.ReplayGate
}

// NextForced implements vm.PreemptionMonitor.
func (r *Replayer) NextForced(tid int) (vm.SyncKey, vm.ForcedAnchor, bool) {
	f := r.forced[tid]
	if len(f) == 0 {
		return vm.SyncKey{}, vm.ForcedAnchor{}, false
	}
	return f[0].key, f[0].anchor, true
}

// Drained reports whether every input and order record was consumed (a
// fully faithful replay consumes everything). The stream is read to its
// end first, so a corrupt tail is never drained.
func (r *Replayer) Drained() bool {
	for r.pullInput() {
	}
	for r.pullOrder() {
	}
	if !r.in.done || !r.ord.done {
		return false
	}
	for _, q := range r.inputQ {
		if q.len() != 0 {
			return false
		}
	}
	for _, q := range r.orderQ {
		if q.len() != 0 {
			return false
		}
	}
	for i := range r.wlQ {
		if r.wlQ[i].len() != 0 {
			return false
		}
	}
	return true
}
