package vm

import (
	"fmt"
	"hash/fnv"

	"repro/internal/minic/types"
	"repro/internal/weaklock"
)

// CostModel assigns simulated cycle costs to VM operations. All evaluation
// numbers in the reproduction are ratios of simulated makespans, so only
// the relative magnitudes matter; the defaults are chosen to match the
// rough cost ratios on the paper's testbed (a logged event ~ tens of
// cycles, a syscall ~ hundreds).
type CostModel struct {
	Instr      int64 // one bytecode instruction
	Call       int64 // extra cost of a call/return pair
	SyncOp     int64 // an original-program sync operation (lock, barrier...)
	LogEvent   int64 // writing one record to a log (sync order or input)
	LogWord    int64 // additional cost per logged data word
	WeakLockOp int64 // a weak-lock acquire or release, excluding logging
	RangeCheck int64 // extra cost of a loop-lock range check
	Malloc     int64 // a heap allocation
	Syscall    int64 // base cost of a simulated system call
	ReplayGate int64 // consulting the order log during replay
}

// DefaultCost returns the standard cost model.
func DefaultCost() CostModel {
	return CostModel{
		Instr:      1,
		Call:       2,
		SyncOp:     12,
		LogEvent:   24,
		LogWord:    1,
		WeakLockOp: 14,
		RangeCheck: 6,
		Malloc:     24,
		Syscall:    120,
		ReplayGate: 10,
	}
}

// SyncClass distinguishes the object classes carrying happens-before order.
type SyncClass uint8

// The sync object classes.
const (
	SyncMutex SyncClass = iota
	SyncBarrier
	SyncCond
	SyncWeakLock
	SyncSpawn // the global spawn sequencer (makes thread IDs deterministic)
)

// String names the sync class for logs.
func (c SyncClass) String() string {
	switch c {
	case SyncMutex:
		return "mutex"
	case SyncBarrier:
		return "barrier"
	case SyncCond:
		return "cond"
	case SyncWeakLock:
		return "weaklock"
	case SyncSpawn:
		return "spawn"
	}
	return "?"
}

// SyncKey identifies one synchronization object.
type SyncKey struct {
	Class SyncClass
	ID    int64 // address for program sync objects; lock ID for weak-locks
}

// String renders the key.
func (k SyncKey) String() string { return fmt.Sprintf("%s:%d", k.Class, k.ID) }

// SyncEventKind distinguishes the logged operations on a sync object.
type SyncEventKind uint8

// The sync event kinds.
const (
	EvAcquire SyncEventKind = iota
	EvRelease
	EvBarrierArrive
	EvCondWait
	EvCondSignal
	EvCondBcast
	EvSpawn
	EvWLAcquire
	EvWLRelease
	EvWLForcedRelease

	// Additional kinds delivered only to event sinks (not logged):
	EvBarrierRelease // a thread leaves a barrier generation
	EvCondWake       // a cond_wait sleeper was woken by a signal
	EvJoin           // join(child) completed; key.ID is the child tid
)

// String names the event kind.
func (k SyncEventKind) String() string {
	switch k {
	case EvAcquire:
		return "acq"
	case EvRelease:
		return "rel"
	case EvBarrierArrive:
		return "bar"
	case EvCondWait:
		return "wait"
	case EvCondSignal:
		return "sig"
	case EvCondBcast:
		return "bcast"
	case EvSpawn:
		return "spawn"
	case EvWLAcquire:
		return "wlacq"
	case EvWLRelease:
		return "wlrel"
	case EvWLForcedRelease:
		return "wlforce"
	case EvBarrierRelease:
		return "barrel"
	case EvCondWake:
		return "wake"
	case EvJoin:
		return "join"
	}
	return "?"
}

// SyncMonitor observes (recording) or gates (replay) the order of
// synchronization operations. The recorder's implementation always allows
// TryProceed and appends to the order log in Commit; the replayer's
// implementation allows a thread to proceed only when it is that thread's
// turn per the log.
type SyncMonitor interface {
	// TryProceed reports whether thread tid may perform its next operation
	// on key now. A false return parks the thread until another commit on
	// the same key wakes it for a retry.
	TryProceed(key SyncKey, kind SyncEventKind, tid int) bool

	// Commit records that the operation happened, in its final global
	// order per key, and returns the simulated cycle cost of the
	// bookkeeping (log write when recording, gate consultation when
	// replaying).
	Commit(key SyncKey, kind SyncEventKind, tid int, now int64) int64
}

// ForcedAnchor pins a forced weak-lock preemption to a deterministic point
// in the owning thread's execution: its retired-instruction count, its
// committed-sync-operation count, and whether it was parked inside a
// blocking operation at the time. The pair (Instr, Sync) is the moral
// equivalent of DoublePlay's (instruction pointer, branch count) that the
// paper planned to use (§2.3); Blocked disambiguates "about to execute the
// operation" from "parked inside it", which share counters.
type ForcedAnchor struct {
	Instr   int64
	Sync    int64
	Blocked bool
}

// PreemptionMonitor extends SyncMonitor for forced weak-lock preemptions
// (paper §2.3). Recording implementations log the anchor; replaying
// implementations expose the schedule so the VM can inject each preemption
// at exactly the recorded point.
//
// Contract: NextForced(tid) changes only through CommitForced(…, tid, …).
// The VM asks once when a thread is created and again after each of its
// forced releases is committed, and caches the answer in between, so a
// schedule must be complete before the run starts.
//
// A replaying monitor's keys come from the log, so the VM does not trust
// them: a key that names no weak-lock of the table indexes no per-lock
// state, and a forced release of a lock the thread does not hold fails
// the run.
type PreemptionMonitor interface {
	// CommitForced records (or, on replay, consumes) a forced release of
	// key by tid at the given anchor, returning the bookkeeping cost.
	CommitForced(key SyncKey, tid int, anchor ForcedAnchor, now int64) int64

	// NextForced returns the next forced preemption scheduled for tid, if
	// any (replay side; recorders return ok=false).
	NextForced(tid int) (key SyncKey, anchor ForcedAnchor, ok bool)
}

// InputProvider supplies the results of nondeterministic input operations.
// Live runs read the simulated OS (and, when recording, log the results);
// replay runs feed results back from the log.
type InputProvider interface {
	// Input performs the input/output operation op for thread tid.
	//   val   - the operation's return value
	//   data  - words read (for read/recv), stored to the user buffer
	//   ready - absolute simulated time when the result is available
	//   cost  - extra cycles charged (logging overhead when recording)
	// A non-nil error aborts the run (replay divergence).
	Input(tid int, op types.BuiltinOp, args []int64, sendData []int64, now int64) (val int64, data []int64, ready int64, cost int64, err error)
}

// FuncHook observes function entries and exits; used by the non-concurrency
// profiler (paper §4).
type FuncHook interface {
	Enter(tid int, fn int, clock int64)
	Exit(tid int, fn int, clock int64)
}

// Config parameterizes one VM run.
type Config struct {
	// Inputs provides nondeterministic input. Required.
	Inputs InputProvider

	// Monitor observes or gates sync order. Nil disables both (native run).
	Monitor SyncMonitor

	// Funcs observes function entry/exit. Nil disables.
	Funcs FuncHook

	// Sinks receive the batched observation event stream (memory accesses
	// and every sync operation — acquires and releases, barrier releases,
	// cond wakeups, spawn/join — in program order, whether or not a
	// monitor logs it): the interpreter hot loop appends to a flat buffer
	// and sinks pay one dispatch per EventBatchSize events.
	Sinks []EventSink

	// WL is the weak-lock table; required if the program executes wl_*
	// builtins.
	WL *weaklock.Table

	// Cost is the cycle cost model; zero value means DefaultCost.
	Cost CostModel

	// Seed perturbs scheduling decisions, modeling the timing
	// nondeterminism of a real multiprocessor. Two runs of a racy program
	// with different seeds may produce different results; Chimera's claim
	// is that record+replay reproduces one recorded run exactly.
	Seed uint64

	// MaxSteps bounds total executed instructions (runaway guard).
	// Zero means a generous default.
	MaxSteps int64

	// StackWords and HeapWords size the memory regions; zero means
	// defaults.
	StackWords int64
	HeapWords  int64

	// MaxThreads bounds concurrently live threads; zero means 64.
	MaxThreads int

	// WLTimeout is the weak-lock stall threshold in cycles before the
	// holder is forcibly preempted (paper §2.3). Zero means a default
	// large enough that well-formed programs never time out.
	WLTimeout int64

	// DisableTimeouts turns off organic weak-lock timeouts; replay sets
	// this so preemptions come only from the recorded schedule.
	DisableTimeouts bool

	// Deterministic enables deterministic execution (the paper's §9
	// future-work direction, in the style of Kendo): every gated
	// synchronization operation — including the weak-locks that make the
	// program race-free — is arbitrated by deterministic logical clocks
	// (retired instructions + wakeup boosts, never simulated time), so the
	// program's result is independent of the schedule seed and of the
	// cost model. Input operations are serialized on a device key and
	// now() returns logical time. No recording is needed for
	// reproducibility; nondeterministic input must still be captured to
	// reproduce a run on a different World.
	Deterministic bool

	// CheckLockOrder enables dynamic verification of the weak-lock
	// acquisition discipline (debug aid for the instrumenter).
	CheckLockOrder bool
}

// Counters aggregates dynamic operation counts for the evaluation.
type Counters struct {
	Instrs     int64 // executed bytecode instructions
	MemOps     int64 // dynamic loads+stores (Figure 6 denominator)
	SyncOps    int64 // original-program sync operations (Table 2 "synch. ops")
	InputOps   int64 // input syscalls (Table 2 "system calls")
	SyncLogs   int64 // order-log records for original sync ops
	InputLogs  int64 // input-log records
	SyncLogCyc int64 // cycles spent logging original sync ops
	InputCyc   int64 // cycles spent logging input
	SyncWait   int64 // cycles blocked on original sync objects
	IOWait     int64 // cycles blocked waiting for simulated I/O
	GateWait   int64 // cycles blocked on the replay order gate
	Spawns     int64

	// EventsEmitted and EventBatches account for the event-sink runtime:
	// observation events delivered to sinks and the batch drains that
	// carried them. Both are zero on un-observed runs, and both are
	// counted in flushEvents so the emission hot path stays untouched.
	EventsEmitted int64
	EventBatches  int64
}

// RunError is a fatal execution error (fault, deadlock, check failure,
// replay divergence).
type RunError struct {
	Thread int
	Clock  int64
	Msg    string
}

// Error implements the error interface.
func (e *RunError) Error() string {
	return fmt.Sprintf("thread %d @%d: %s", e.Thread, e.Clock, e.Msg)
}

// Result is the outcome of one VM run.
type Result struct {
	// Output is the deterministic program output (print/prints).
	Output []byte

	// ExitCode is main's return value or the exit() argument.
	ExitCode int64

	// Makespan is the simulated wall time: the maximum final thread clock.
	Makespan int64

	// Counters and WLStats are the dynamic accounting.
	Counters Counters
	WLStats  weaklock.Stats

	// WLSites holds per-weak-lock counters, indexed by lock ID (same
	// order as the table); nil when the run had no weak-lock table.
	WLSites []weaklock.SiteStats

	// MemHash fingerprints final memory (globals+heap) and output;
	// record/replay verification compares it.
	MemHash uint64

	// Threads is the number of threads ever created.
	Threads int

	// Err is non-nil if the run aborted.
	Err error
}

// Hash64 combines the output and memory fingerprints; two runs with equal
// Hash64 produced identical observable behavior.
func (r *Result) Hash64() uint64 {
	h := fnv.New64a()
	h.Write(r.Output)
	var b [8]byte
	putU64(b[:], r.MemHash)
	h.Write(b[:])
	putU64(b[:], uint64(r.ExitCode))
	h.Write(b[:])
	return h.Sum64()
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
