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
	"fmt"
	"io"
	"sort"

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

// Log is a complete recording.
type Log struct {
	// Inputs holds each thread's input-operation results in program
	// order (a thread's input sequence is deterministic given the sync
	// order, so per-thread FIFOs suffice).
	Inputs map[int][]InputRec

	// Orders holds the committed operation order per sync object.
	Orders map[vm.SyncKey][]OrderRec
}

// NewLog returns an empty log.
func NewLog() *Log {
	return &Log{
		Inputs: make(map[int][]InputRec),
		Orders: make(map[vm.SyncKey][]OrderRec),
	}
}

// InputCount returns the total number of logged input records.
func (l *Log) InputCount() int {
	n := 0
	for _, recs := range l.Inputs {
		n += len(recs)
	}
	return n
}

// OrderCount returns the total number of order records, optionally
// filtered by sync class.
func (l *Log) OrderCount(classes ...vm.SyncClass) int {
	n := 0
	for k, recs := range l.Orders {
		if len(classes) == 0 {
			n += len(recs)
			continue
		}
		for _, c := range classes {
			if k.Class == c {
				n += len(recs)
			}
		}
	}
	return n
}

// sortedInputTids returns thread ids with input records, ascending.
func (l *Log) sortedInputTids() []int {
	var tids []int
	for tid := range l.Inputs {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	return tids
}

// sortedOrderKeys returns the sync keys, deterministically ordered.
func (l *Log) sortedOrderKeys() []vm.SyncKey {
	keys := make([]vm.SyncKey, 0, len(l.Orders))
	for k := range l.Orders {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Class != keys[j].Class {
			return keys[i].Class < keys[j].Class
		}
		return keys[i].ID < keys[j].ID
	})
	return keys
}

// ---------------------------------------------------------------------------
// Recorder

// Recorder implements vm.InputProvider and vm.SyncMonitor for a recording
// run: inputs come from the live simulated OS and are logged; sync commits
// are appended to the order log. Costs model the logging overhead.
type Recorder struct {
	log  *Log
	live vm.LiveInputs
	cost vm.CostModel
	lw   *LogWriter // optional streaming tee (AttachWriter)
}

// AttachWriter tees every logged record into lw as it is committed, so a
// recording streams to disk while the run is still executing. The caller
// owns lw and must Close it after the run. Attaching adds no simulated
// cost — the CostModel already charges for logging.
func (r *Recorder) AttachWriter(lw *LogWriter) { r.lw = lw }

// NewRecorder returns a recorder over the given OS.
func NewRecorder(os vm.OS, cost vm.CostModel) *Recorder {
	if cost == (vm.CostModel{}) {
		cost = vm.DefaultCost()
	}
	return &Recorder{log: NewLog(), live: vm.LiveInputs{OS: os}, cost: cost}
}

// Log returns the recording.
func (r *Recorder) Log() *Log { return r.log }

// Input implements vm.InputProvider.
func (r *Recorder) Input(tid int, op types.BuiltinOp, args []int64, sendData []int64, now int64) (int64, []int64, int64, int64, error) {
	val, data, ready, _, err := r.live.Input(tid, op, args, sendData, now)
	if err != nil {
		return 0, nil, now, 0, err
	}
	rec := InputRec{Op: op, Val: val}
	if len(data) > 0 {
		rec.Data = append([]int64{}, data...)
	}
	r.log.Inputs[tid] = append(r.log.Inputs[tid], rec)
	if r.lw != nil {
		r.lw.Input(tid, rec)
	}
	cost := r.cost.LogEvent + r.cost.LogWord*int64(len(data))
	return val, data, ready, cost, nil
}

// TryProceed implements vm.SyncMonitor: recording never blocks.
func (r *Recorder) TryProceed(key vm.SyncKey, kind vm.SyncEventKind, tid int) bool { return true }

// Commit implements vm.SyncMonitor: append to the order log.
func (r *Recorder) Commit(key vm.SyncKey, kind vm.SyncEventKind, tid int, now int64) int64 {
	rec := OrderRec{Tid: int32(tid), Kind: kind}
	r.log.Orders[key] = append(r.log.Orders[key], rec)
	if r.lw != nil {
		r.lw.Order(key, rec)
	}
	return r.cost.LogEvent
}

// CommitForced implements vm.PreemptionMonitor: log the forced release
// together with its deterministic anchor (paper §2.3's planned DoublePlay
// mechanism, here fully implemented).
func (r *Recorder) CommitForced(key vm.SyncKey, tid int, anchor vm.ForcedAnchor, now int64) int64 {
	rec := OrderRec{Tid: int32(tid), Kind: vm.EvWLForcedRelease, Anchor: anchor}
	r.log.Orders[key] = append(r.log.Orders[key], rec)
	if r.lw != nil {
		r.lw.Order(key, rec)
	}
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
// It consumes per-thread input queues and per-key order queues.
// NewReplayer fills them straight from an in-memory Log; NewStreamReplayer
// pulls them lazily from a chunked log stream, so memory is bounded by how
// far the replayed schedule runs ahead of the stream order, not by the
// recording's length.
type Replayer struct {
	cur  *LogCursor // nil when replaying an in-memory Log
	cost vm.CostModel
	// Queues are held by pointer so each hot method looks its queue up
	// once and consumes a record by reslicing, with no map write.
	inputQ map[int]*[]InputRec
	orderQ map[vm.SyncKey]*[]OrderRec

	// forced holds each thread's scheduled preemptions in order.
	forced map[int][]forcedRec
	eof    bool
	err    error
}

type forcedRec struct {
	key    vm.SyncKey
	anchor vm.ForcedAnchor
}

func newReplayer(cost vm.CostModel) *Replayer {
	if cost == (vm.CostModel{}) {
		cost = vm.DefaultCost()
	}
	return &Replayer{
		cost:   cost,
		inputQ: make(map[int]*[]InputRec),
		orderQ: make(map[vm.SyncKey]*[]OrderRec),
		forced: make(map[int][]forcedRec),
	}
}

// NewReplayer returns a replayer over an in-memory recording. Its queues
// share the log's slices and never write to them, so one Log can back any
// number of concurrent replays.
func NewReplayer(log *Log, cost vm.CostModel) *Replayer {
	r := newReplayer(cost)
	r.eof = true
	for tid, recs := range log.Inputs {
		q := recs
		r.inputQ[tid] = &q
	}
	for _, key := range log.sortedOrderKeys() {
		q := log.Orders[key]
		r.orderQ[key] = &q
		for _, rec := range q {
			r.schedule(key, rec)
		}
	}
	r.sortForced()
	return r
}

// NewStreamReplayer returns a replayer over a chunked log stream.
// Construction prescans the stream once for forced weak-lock preemptions —
// the VM needs each thread's next preemption anchor up front (NextForced),
// which no finite lookahead bounds — then seeks back and decodes
// incrementally, verifying each chunk's CRC before trusting its records.
func NewStreamReplayer(rs io.ReadSeeker, cost vm.CostModel) (*Replayer, error) {
	r := newReplayer(cost)
	pre := NewLogCursor(rs)
	for {
		rec, err := pre.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if !rec.IsInput {
			r.schedule(rec.Key, rec.Order)
		}
	}
	r.sortForced()
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("replay: rewind after forced-preemption prescan: %w", err)
	}
	r.cur = NewLogCursor(rs)
	return r, nil
}

// schedule adds rec to its thread's preemption schedule if it is a forced
// weak-lock release.
func (r *Replayer) schedule(key vm.SyncKey, rec OrderRec) {
	if rec.Kind == vm.EvWLForcedRelease {
		r.forced[int(rec.Tid)] = append(r.forced[int(rec.Tid)], forcedRec{key: key, anchor: rec.Anchor})
	}
}

// sortForced puts each thread's schedule in anchor order: a thread
// executes its preemptions one at a time, so within a thread the anchors
// give the true order.
func (r *Replayer) sortForced() {
	for _, recs := range r.forced {
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].anchor.Instr != recs[j].anchor.Instr {
				return recs[i].anchor.Instr < recs[j].anchor.Instr
			}
			return recs[i].anchor.Sync < recs[j].anchor.Sync
		})
	}
}

// pull decodes one more stream record into its queue; false at the end of
// the stream, on a corrupt stream (recorded in err), and always for an
// in-memory Log.
func (r *Replayer) pull() bool {
	if r.eof || r.err != nil {
		return false
	}
	rec, err := r.cur.Next()
	if err == io.EOF {
		r.eof = true
		return false
	}
	if err != nil {
		r.err = err
		return false
	}
	if rec.IsInput {
		q := r.inputQ[rec.Tid]
		if q == nil {
			q = new([]InputRec)
			r.inputQ[rec.Tid] = q
		}
		*q = append(*q, rec.Input)
	} else {
		q := r.orderQ[rec.Key]
		if q == nil {
			q = new([]OrderRec)
			r.orderQ[rec.Key] = q
		}
		*q = append(*q, rec.Order)
	}
	return true
}

// inputs returns tid's input queue holding at least one record, or nil
// when the log has no more input for tid.
func (r *Replayer) inputs(tid int) *[]InputRec {
	q := r.inputQ[tid]
	for q == nil || len(*q) == 0 {
		if !r.pull() {
			return nil
		}
		q = r.inputQ[tid]
	}
	return q
}

// orders returns key's order queue holding at least one record, or nil
// when the log has no more records on key.
func (r *Replayer) orders(key vm.SyncKey) *[]OrderRec {
	q := r.orderQ[key]
	for q == nil || len(*q) == 0 {
		if !r.pull() {
			return nil
		}
		q = r.orderQ[key]
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
	rec := (*q)[0]
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
	*q = (*q)[1:]
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
	return (*q)[0].Tid == int32(tid)
}

// Commit implements vm.SyncMonitor: consume the head record on the key.
func (r *Replayer) Commit(key vm.SyncKey, kind vm.SyncEventKind, tid int, now int64) int64 {
	q := r.orders(key)
	if q == nil || (*q)[0].Tid != int32(tid) {
		r.diverge("commit out of order on %s by thread %d", key, tid)
		return r.cost.ReplayGate
	}
	if got := (*q)[0].Kind; got != kind {
		r.diverge("op kind mismatch on %s: got %s, recorded %s", key, kind, got)
	}
	*q = (*q)[1:]
	return r.cost.ReplayGate
}

// CommitForced implements vm.PreemptionMonitor: consume the head forced
// record on the key and the thread's schedule.
func (r *Replayer) CommitForced(key vm.SyncKey, tid int, anchor vm.ForcedAnchor, now int64) int64 {
	q := r.orders(key)
	if q == nil || (*q)[0].Kind != vm.EvWLForcedRelease || (*q)[0].Tid != int32(tid) {
		r.diverge("forced preemption on %s by thread %d not next in the log", key, tid)
		return r.cost.ReplayGate
	}
	*q = (*q)[1:]
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
// fully faithful replay consumes everything). A stream is read to its end
// first, so a corrupt tail is never drained.
func (r *Replayer) Drained() bool {
	for r.pull() {
	}
	if !r.eof {
		return false
	}
	for _, q := range r.inputQ {
		if len(*q) != 0 {
			return false
		}
	}
	for _, q := range r.orderQ {
		if len(*q) != 0 {
			return false
		}
	}
	return true
}
