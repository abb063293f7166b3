package vm

import (
	"repro/internal/minic/types"
	"repro/internal/weaklock"
)

// OutputKey serializes output operations (print, prints, write, send).
// The kernel orders concurrent writes to one descriptor with its own locks;
// recording that order is part of recording syscall happens-before.
var OutputKey = SyncKey{Class: SyncMutex, ID: 1}

// SpawnKey serializes thread creation so thread IDs are deterministic
// across record and replay.
var SpawnKey = SyncKey{Class: SyncSpawn, ID: 0}

type mutexState struct {
	owner   int // -1 when free
	waiters []*thread
}

type barrierState struct {
	n       int
	arrived []*thread
}

type condState struct {
	waiters []*thread
}

// wlHolder is one (thread, range) currently holding a weak-lock.
type wlHolder struct {
	tid    int
	lo, hi int64
}

// wlWaiter is a thread stalled on a weak-lock, with the timeout deadline
// fixed at first stall (paper §2.3).
type wlWaiter struct {
	t        *thread
	lo, hi   int64
	deadline int64
}

// wlLockState is one weak-lock's runtime state: its holders, the threads
// stalled on a conflicting holder, and the threads parked on its replay
// gate. The machine keeps one per lock of the table, indexed by ID.
type wlLockState struct {
	holders []wlHolder
	waiters []wlWaiter
	gated   []*thread
}

func (m *machine) mutex(addr int64) *mutexState {
	mu, ok := m.mutexes[addr]
	if !ok {
		mu = &mutexState{owner: -1}
		m.mutexes[addr] = mu
	}
	return mu
}

// wlSlot returns the state of the weak-lock that key names, or nil when key
// is not a weak-lock of the table. A replaying monitor's keys come from the
// log, so the ID is bounds-checked before it indexes anything.
func (m *machine) wlSlot(key SyncKey) *wlLockState {
	if key.Class == SyncWeakLock && key.ID >= 0 && key.ID < int64(len(m.wls)) {
		return &m.wls[key.ID]
	}
	return nil
}

// IOKey serializes shared-device input operations under deterministic
// execution (the simulated analog of the kernel ordering reads on a
// descriptor).
var IOKey = SyncKey{Class: SyncMutex, ID: 2}

// gate consults the deterministic arbiter and/or the replay/record monitor
// before a sync operation. It returns false (and parks t) when the thread
// must wait its turn.
func (m *machine) gate(t *thread, key SyncKey, kind SyncEventKind) bool {
	if m.cfg.Deterministic && !m.detMayProceed(t) {
		t.detParked = true
		m.block(t)
		return false
	}
	if m.cfg.Monitor == nil {
		return true
	}
	if t.forcedDue() {
		// The recording preempted t here, while t was parked in this
		// operation. The preemption comes first, once its key's order
		// allows; the operation is then retried, after the lost weak-lock
		// is reacquired, as it was when recording.
		if m.cfg.Monitor.TryProceed(t.forcedKey, EvWLForcedRelease, t.id) {
			m.doInjectForced(t, t.forcedKey, t.forced)
		} else {
			m.parkGated(t, t.forcedKey)
		}
		return false
	}
	if m.cfg.Monitor.TryProceed(key, kind, t.id) {
		return true
	}
	m.parkGated(t, key)
	return false
}

// parkGated blocks t on key's replay gate until a commit on key wakes it. A
// weak-lock of the table keeps its gated threads in its slot; every other
// key uses the gateWaiters map.
func (m *machine) parkGated(t *thread, key SyncKey) {
	if s := m.wlSlot(key); s != nil {
		s.gated = append(s.gated, t)
	} else {
		m.gateWaiters[key] = append(m.gateWaiters[key], t)
	}
	m.block(t)
}

// detClock is the deterministic logical clock: a pure function of executed
// instructions and (deterministic) wakeup boosts, never of simulated time.
func detClock(t *thread) int64 { return t.instrCount + t.detBoost }

// detMayProceed implements the Kendo-style arbitration rule: a thread may
// perform a synchronization operation only when its logical clock is
// strictly minimal (ties broken by thread id) among every thread that
// could still contend — running threads and arbiter-parked threads.
// Threads blocked on a resource are excluded; their clock is
// fast-forwarded past their waker's when they wake, so they can never
// contend "in the past".
func (m *machine) detMayProceed(t *thread) bool {
	dct := detClock(t)
	for _, u := range m.threads {
		if u == t || u.state == tDone {
			continue
		}
		if u.state == tBlocked && !u.detParked {
			continue // resource-blocked: excluded until woken (and boosted)
		}
		dcu := detClock(u)
		if dcu < dct || (dcu == dct && u.id < t.id) {
			return false
		}
	}
	return true
}

// boostWake fast-forwards a woken sleeper's logical clock past its waker's
// so arbitration decisions stay deterministic.
func (m *machine) boostWake(w, waker *thread) {
	if !m.cfg.Deterministic || waker == nil {
		return
	}
	want := detClock(waker) + 1
	if detClock(w) < want {
		w.detBoost = want - w.instrCount
	}
}

// wakeDetParked makes every arbiter-parked thread re-check its turn.
func (m *machine) wakeDetParked() {
	if !m.cfg.Deterministic {
		return
	}
	for _, t := range m.threads {
		if t.detParked && t.state == tBlocked {
			t.detParked = false
			m.wake(t, t.clock)
		}
	}
}

// wakeMinDetParked wakes only the arbiter-parked thread with the minimal
// logical clock; used when no thread is runnable (the minimum necessarily
// has its turn).
func (m *machine) wakeMinDetParked() bool {
	if !m.cfg.Deterministic {
		return false
	}
	var best *thread
	for _, t := range m.threads {
		if !t.detParked || t.state != tBlocked {
			continue
		}
		if best == nil || detClock(t) < detClock(best) ||
			(detClock(t) == detClock(best) && t.id < best.id) {
			best = t
		}
	}
	if best == nil {
		return false
	}
	best.detParked = false
	m.wake(best, best.clock)
	return true
}

// commit records a sync event in its final order, charges the bookkeeping
// cost, and wakes threads gated on the same key. Original-program sync
// only; weak-lock events go through commitWL so costs attribute to the
// acquire site's granularity.
func (m *machine) commit(t *thread, key SyncKey, kind SyncEventKind) {
	cost := m.commitRaw(t, key, kind)
	if cost < 0 {
		return
	}
	m.counters.SyncLogs++
	m.counters.SyncLogCyc += cost
}

// commitWL commits a weak-lock event, attributing the log cost to the
// site's granularity (one lock may guard sites of different
// granularities).
func (m *machine) commitWL(t *thread, key SyncKey, wlKind weaklock.Kind, kind SyncEventKind) {
	cost := m.commitRaw(t, key, kind)
	if cost < 0 {
		return
	}
	m.wlStats.Logs[wlKind]++
	m.wlStats.LogCycles[wlKind] += cost
}

func (m *machine) commitRaw(t *thread, key SyncKey, kind SyncEventKind) int64 {
	if m.cfg.Monitor == nil {
		return -1
	}
	cost := m.cfg.Monitor.Commit(key, kind, t.id, t.clock)
	t.clock += cost
	t.syncSeq++
	m.wakeGated(key)
	return cost
}

// wakeGated wakes every thread parked on key's replay gate.
func (m *machine) wakeGated(key SyncKey) {
	if s := m.wlSlot(key); s != nil {
		for _, w := range s.gated {
			m.wake(w, w.clock)
		}
		s.gated = s.gated[:0]
		return
	}
	if ws := m.gateWaiters[key]; len(ws) > 0 {
		delete(m.gateWaiters, key)
		for _, w := range ws {
			m.wake(w, w.clock)
		}
	}
}

// syncEvent delivers a sync operation to the observation event stream; it
// is interleaved with memory-access events in exact program order so
// happens-before observers reconstruct the same relation the old
// synchronous hooks saw.
func (m *machine) syncEvent(key SyncKey, kind SyncEventKind, tid int, clock int64) {
	if m.observing {
		m.emitSync(key, kind, tid, clock)
	}
}

// finish completes a builtin: pops its arguments, pushes the result if any,
// advances the pc and charges cost.
func (m *machine) finish(t *thread, nargs int, cost int64, hasRet bool, ret int64) {
	t.popN(nargs)
	if hasRet {
		t.push(ret)
	}
	f := &t.frames[len(t.frames)-1]
	f.pc++
	t.clock += cost
	t.instrCount++
	m.counters.Instrs++
}

// doBuiltin executes builtin op for t. Returns false if the thread blocked
// (the instruction will re-execute on wake), finished, or faulted.
func (m *machine) doBuiltin(t *thread, f *frame, op types.BuiltinOp, nargs int, in Instr) bool {
	args := t.peekN(nargs)

	switch op {
	// -------------------------------------------------------------- threads
	case types.BSpawn:
		if !m.gate(t, SpawnKey, EvSpawn) {
			return false
		}
		fnIdx := FuncIndexOf(args[0], len(m.prog.Funcs))
		if fnIdx < 0 {
			m.fail(t, "spawn of non-function value %d", args[0])
			return false
		}
		child, err := m.newThread(fnIdx, []int64{args[1]}, t.clock+m.cost.SyncOp)
		if err != nil {
			m.fail(t, "spawn: %v", err)
			return false
		}
		m.counters.Spawns++
		m.counters.SyncOps++
		m.commit(t, SpawnKey, EvSpawn)
		m.syncEvent(SyncKey{SyncSpawn, int64(child.id)}, EvSpawn, t.id, t.clock)
		m.finish(t, nargs, m.cost.SyncOp, true, int64(child.id))
		return true

	case types.BJoin:
		tid := args[0]
		if tid < 0 || tid >= int64(len(m.threads)) {
			m.fail(t, "join of invalid thread %d", tid)
			return false
		}
		child := m.threads[tid]
		m.counters.SyncOps++
		if child.state == tDone {
			m.finish(t, nargs, m.cost.SyncOp, false, 0)
			if child.clock > t.clock {
				m.counters.SyncWait += child.clock - t.clock
				t.clock = child.clock
			}
			m.syncEvent(SyncKey{SyncSpawn, tid}, EvJoin, t.id, t.clock)
			return true
		}
		// Park after completing the operation; the child's exit wakes us.
		m.finish(t, nargs, m.cost.SyncOp, false, 0)
		child.exitWaiters = append(child.exitWaiters, t)
		m.block(t)
		return false

	// ------------------------------------------------------------- mutexes
	case types.BLock:
		mu := m.mutex(args[0])
		if !m.gate(t, SyncKey{SyncMutex, args[0]}, EvAcquire) {
			return false
		}
		if mu.owner == t.id {
			m.fail(t, "recursive lock of mutex %d", args[0])
			return false
		}
		if mu.owner != -1 {
			mu.addWaiter(t)
			m.block(t)
			return false
		}
		mu.owner = t.id
		mu.removeWaiter(t)
		m.counters.SyncOps++
		m.counters.SyncWait += m.unblocked(t)
		m.commit(t, SyncKey{SyncMutex, args[0]}, EvAcquire)
		m.syncEvent(SyncKey{SyncMutex, args[0]}, EvAcquire, t.id, t.clock)
		m.finish(t, nargs, m.cost.SyncOp, false, 0)
		return true

	case types.BUnlock:
		mu := m.mutex(args[0])
		if mu.owner != t.id {
			m.fail(t, "unlock of mutex %d not held (owner %d)", args[0], mu.owner)
			return false
		}
		mu.owner = -1
		m.counters.SyncOps++
		m.syncEvent(SyncKey{SyncMutex, args[0]}, EvRelease, t.id, t.clock)
		m.finish(t, nargs, m.cost.SyncOp, false, 0)
		for _, w := range mu.waiters {
			m.boostWake(w, t)
			m.wake(w, t.clock)
		}
		return true

	// ------------------------------------------------------------ barriers
	case types.BBarrierInit:
		b, ok := m.barriers[args[0]]
		if !ok {
			b = &barrierState{}
			m.barriers[args[0]] = b
		}
		if args[1] <= 0 {
			m.fail(t, "barrier_init with count %d", args[1])
			return false
		}
		b.n = int(args[1])
		m.counters.SyncOps++
		m.finish(t, nargs, m.cost.SyncOp, false, 0)
		return true

	case types.BBarrierWait:
		b, ok := m.barriers[args[0]]
		if !ok || b.n == 0 {
			m.fail(t, "barrier_wait on uninitialized barrier %d", args[0])
			return false
		}
		if !m.gate(t, SyncKey{SyncBarrier, args[0]}, EvBarrierArrive) {
			return false
		}
		m.counters.SyncOps++
		m.counters.SyncWait += m.unblocked(t)
		m.commit(t, SyncKey{SyncBarrier, args[0]}, EvBarrierArrive)
		m.syncEvent(SyncKey{SyncBarrier, args[0]}, EvBarrierArrive, t.id, t.clock)
		m.finish(t, nargs, m.cost.SyncOp, false, 0)
		if len(b.arrived)+1 < b.n {
			b.arrived = append(b.arrived, t)
			m.block(t)
			return false
		}
		// Last arrival releases the generation.
		release := t.clock
		for _, w := range b.arrived {
			if w.blocking {
				w.blocking = false
				if release > w.blockStart {
					m.counters.SyncWait += release - w.blockStart
				}
			}
			m.boostWake(w, t)
			m.wake(w, release)
			m.syncEvent(SyncKey{SyncBarrier, args[0]}, EvBarrierRelease, w.id, release)
		}
		m.syncEvent(SyncKey{SyncBarrier, args[0]}, EvBarrierRelease, t.id, release)
		b.arrived = b.arrived[:0]
		return true

	// --------------------------------------------------- condition variables
	case types.BCondWait:
		cv, ok := m.conds[args[0]]
		if !ok {
			cv = &condState{}
			m.conds[args[0]] = cv
		}
		if t.resume == resumeCondRelock {
			// Phase 2: re-acquire the mutex after being signaled.
			mu := m.mutex(t.condMutex)
			if !m.gate(t, SyncKey{SyncMutex, t.condMutex}, EvAcquire) {
				return false
			}
			if mu.owner != -1 {
				mu.addWaiter(t)
				m.block(t)
				return false
			}
			mu.owner = t.id
			mu.removeWaiter(t)
			t.resume = resumeNone
			m.counters.SyncWait += m.unblocked(t)
			m.commit(t, SyncKey{SyncMutex, t.condMutex}, EvAcquire)
			m.syncEvent(SyncKey{SyncMutex, t.condMutex}, EvAcquire, t.id, t.clock)
			m.finish(t, nargs, m.cost.SyncOp, false, 0)
			return true
		}
		// Phase 1: release the mutex and park on the condition.
		if !m.gate(t, SyncKey{SyncCond, args[0]}, EvCondWait) {
			return false
		}
		mu := m.mutex(args[1])
		if mu.owner != t.id {
			m.fail(t, "cond_wait: mutex %d not held", args[1])
			return false
		}
		m.counters.SyncOps++
		m.commit(t, SyncKey{SyncCond, args[0]}, EvCondWait)
		m.syncEvent(SyncKey{SyncCond, args[0]}, EvCondWait, t.id, t.clock)
		mu.owner = -1
		m.syncEvent(SyncKey{SyncMutex, args[1]}, EvRelease, t.id, t.clock)
		for _, w := range mu.waiters {
			m.boostWake(w, t)
			m.wake(w, t.clock)
		}
		t.resume = resumeCondRelock
		t.condMutex = args[1]
		cv.waiters = append(cv.waiters, t)
		m.block(t)
		return false

	case types.BCondSignal, types.BCondBcast:
		cv, ok := m.conds[args[0]]
		if !ok {
			cv = &condState{}
			m.conds[args[0]] = cv
		}
		kind := EvCondSignal
		if op == types.BCondBcast {
			kind = EvCondBcast
		}
		if !m.gate(t, SyncKey{SyncCond, args[0]}, kind) {
			return false
		}
		m.counters.SyncOps++
		m.commit(t, SyncKey{SyncCond, args[0]}, kind)
		m.syncEvent(SyncKey{SyncCond, args[0]}, kind, t.id, t.clock)
		n := 1
		if op == types.BCondBcast {
			n = len(cv.waiters)
		}
		for i := 0; i < n && len(cv.waiters) > 0; i++ {
			w := cv.waiters[0]
			cv.waiters = cv.waiters[1:]
			if w.blocking {
				w.blocking = false
				if t.clock > w.blockStart {
					m.counters.SyncWait += t.clock - w.blockStart
				}
			}
			m.boostWake(w, t)
			m.wake(w, t.clock)
			m.syncEvent(SyncKey{SyncCond, args[0]}, EvCondWake, w.id, t.clock)
		}
		m.finish(t, nargs, m.cost.SyncOp, false, 0)
		return true

	// -------------------------------------------------------------- memory
	case types.BMalloc:
		n := args[0]
		if n < 0 {
			m.fail(t, "malloc(%d)", n)
			return false
		}
		if n == 0 {
			n = 1
		}
		if m.heapTop+n > m.stackBase {
			m.fail(t, "out of heap memory (%d words requested)", n)
			return false
		}
		addr := m.heapTop
		m.heapTop += n
		m.finish(t, nargs, m.cost.Malloc, true, addr)
		return true

	case types.BFree:
		// The simulated heap does not recycle; free is a no-op.
		m.finish(t, nargs, m.cost.Instr, false, 0)
		return true

	// ----------------------------------------------------------------- I/O
	case types.BOpen, types.BRead, types.BAccept, types.BRecv, types.BNow, types.BRnd:
		return m.doInput(t, op, nargs, args)

	case types.BWrite, types.BSend:
		if !m.gate(t, OutputKey, EvRelease) {
			return false
		}
		buf, n := args[1], args[2]
		if n < 0 || (n > 0 && (!m.validAddr(buf) || !m.validAddr(buf+n-1))) {
			m.fail(t, "%s: bad buffer [%d,%d)", types.BuiltinName(op), buf, buf+n)
			return false
		}
		sendData := make([]int64, n)
		m.mem.read(sendData, buf)
		val, _, ready, pcost, err := m.cfg.Inputs.Input(t.id, op, args, sendData, t.clock)
		if err != nil {
			m.fail(t, "%s: %v", types.BuiltinName(op), err)
			return false
		}
		m.commit(t, OutputKey, EvRelease)
		if ready > t.clock {
			m.counters.IOWait += ready - t.clock
			t.clock = ready
		}
		m.finish(t, nargs, m.cost.Syscall+pcost, true, val)
		return true

	case types.BClose:
		m.finish(t, nargs, m.cost.Syscall, false, 0)
		return true

	// -------------------------------------------------------------- output
	case types.BPrint:
		if !m.gate(t, OutputKey, EvRelease) {
			return false
		}
		m.commit(t, OutputKey, EvRelease)
		m.appendPrint(args[0])
		m.finish(t, nargs, m.cost.Instr, false, 0)
		return true

	case types.BPrints:
		if !m.gate(t, OutputKey, EvRelease) {
			return false
		}
		m.commit(t, OutputKey, EvRelease)
		if !m.appendPrints(t, args[0]) {
			return false
		}
		m.finish(t, nargs, m.cost.Instr, false, 0)
		return true

	case types.BExit:
		m.exitCode = args[0]
		m.exited = true
		m.finish(t, nargs, m.cost.Instr, false, 0)
		return false

	case types.BCheck:
		if args[0] == 0 {
			m.fail(t, "check failed (node %d in %s)", in.Node, f.fn.Name)
			return false
		}
		m.finish(t, nargs, m.cost.Instr, false, 0)
		return true

	// ---------------------------------------------------------- weak-locks
	case types.BWlAcquire:
		return m.wlAcquire(t, nargs, args)
	case types.BWlRelease:
		return m.wlRelease(t, nargs, args)
	}

	m.fail(t, "unimplemented builtin %s", types.BuiltinName(op))
	return false
}

func (mu *mutexState) addWaiter(t *thread) {
	for _, w := range mu.waiters {
		if w == t {
			return
		}
	}
	mu.waiters = append(mu.waiters, t)
}

func (mu *mutexState) removeWaiter(t *thread) {
	for i, w := range mu.waiters {
		if w == t {
			mu.waiters = append(mu.waiters[:i], mu.waiters[i+1:]...)
			return
		}
	}
}

// doInput performs a nondeterministic-input builtin via the InputProvider.
// Under deterministic execution, shared-device input is serialized on the
// IO key and now() returns logical time, so input values depend only on
// the (deterministic) operation order, not on simulated timing.
func (m *machine) doInput(t *thread, op types.BuiltinOp, nargs int, args []int64) bool {
	if m.cfg.Deterministic {
		if !m.gate(t, IOKey, EvAcquire) {
			return false
		}
		if op == types.BNow {
			m.finish(t, nargs, m.cost.Instr, true, detClock(t))
			return true
		}
	}
	val, data, ready, pcost, err := m.cfg.Inputs.Input(t.id, op, args, nil, t.clock)
	if err != nil {
		m.fail(t, "%s: %v", types.BuiltinName(op), err)
		return false
	}
	m.counters.InputOps++
	if pcost > 0 {
		m.counters.InputLogs++
		m.counters.InputCyc += pcost
	}
	// Reads deposit data into the user buffer.
	if op == types.BRead || op == types.BRecv {
		buf := args[1]
		if len(data) > 0 {
			if !m.validAddr(buf) || !m.validAddr(buf+int64(len(data))-1) {
				m.fail(t, "%s: bad buffer %d (+%d)", types.BuiltinName(op), buf, len(data))
				return false
			}
			m.mem.write(buf, data)
			m.counters.MemOps += int64(len(data))
		}
	}
	if ready > t.clock {
		m.counters.IOWait += ready - t.clock
		t.clock = ready
	}
	cost := m.cost.Syscall + pcost
	if op == types.BNow || op == types.BRnd {
		cost = m.cost.Instr + pcost // cheap vDSO-style calls
	}
	m.finish(t, nargs, cost, true, val)
	return true
}

// ---------------------------------------------------------------------------
// Weak-lock runtime (paper §2.2-2.3)

// conflicts reports whether a thread other than tid holds a range of the
// lock that overlaps [lo, hi].
func (s *wlLockState) conflicts(tid int, lo, hi int64) bool {
	for _, h := range s.holders {
		if h.tid != tid && weaklock.RangesOverlap(h.lo, h.hi, lo, hi) {
			return true
		}
	}
	return false
}

// wlConflict returns the holders that conflict with (tid, lo, hi).
func (s *wlLockState) wlConflict(tid int, lo, hi int64) []wlHolder {
	var out []wlHolder
	for _, h := range s.holders {
		if h.tid != tid && weaklock.RangesOverlap(h.lo, h.hi, lo, hi) {
			out = append(out, h)
		}
	}
	return out
}

// wlAddWaiter queues t as stalled on s and counts it in wlStalled.
func (m *machine) wlAddWaiter(s *wlLockState, t *thread, lo, hi, deadline int64) {
	for _, w := range s.waiters {
		if w.t == t {
			return // deadline fixed at first stall
		}
	}
	s.waiters = append(s.waiters, wlWaiter{t: t, lo: lo, hi: hi, deadline: deadline})
	m.wlStalled++
}

// wlRemoveWaiter drops t's stall record from s, if it has one.
func (m *machine) wlRemoveWaiter(s *wlLockState, t *thread) {
	for i, w := range s.waiters {
		if w.t == t {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			m.wlStalled--
			return
		}
	}
}

func (s *wlLockState) removeHolder(tid int) bool {
	for i, h := range s.holders {
		if h.tid == tid {
			s.holders = append(s.holders[:i], s.holders[i+1:]...)
			return true
		}
	}
	return false
}

func (m *machine) wlDesc(t *thread, id int64) *weaklock.Descriptor {
	if m.cfg.WL == nil {
		m.fail(t, "weak-lock builtin without a lock table")
		return nil
	}
	d := m.cfg.WL.Lock(weaklock.ID(id))
	if d == nil {
		m.fail(t, "unknown weak-lock %d", id)
	}
	return d
}

func (m *machine) wlAcquire(t *thread, nargs int, args []int64) bool {
	kind := weaklock.Kind(args[0])
	id := args[1]
	lo, hi := args[2], args[3]
	if kind < 0 || kind >= weaklock.NumKinds {
		m.fail(t, "weak-lock acquire with bad kind %d", args[0])
		return false
	}
	d := m.wlDesc(t, id)
	if d == nil {
		return false
	}
	ranged := !(lo == weaklock.NegInf && hi == weaklock.PosInf)
	blocked, ok := m.wlTryAcquire(t, d, kind, lo, hi)
	if !ok || blocked {
		return false
	}
	cost := m.cost.WeakLockOp
	if ranged {
		cost += m.cost.RangeCheck
	}
	m.finish(t, nargs, cost, false, 0)
	return true
}

// wlTryAcquire attempts the acquisition; returns (blocked, ok). ok=false
// means a fatal error occurred. Weak-locks are reentrant: re-acquisition by
// the holder increments the depth and widens the held range.
func (m *machine) wlTryAcquire(t *thread, d *weaklock.Descriptor, kind weaklock.Kind, lo, hi int64) (blocked, ok bool) {
	s := &m.wls[d.ID]

	// Reentrant fast path: no gating, no logging — the lock is already
	// held and ordered.
	for i := range t.held {
		if t.held[i].id == d.ID {
			t.held[i].depth++
			if lo < t.held[i].lo {
				t.held[i].lo = lo
			}
			if hi > t.held[i].hi {
				t.held[i].hi = hi
			}
			for j := range s.holders {
				if s.holders[j].tid == t.id {
					if lo < s.holders[j].lo {
						s.holders[j].lo = lo
					}
					if hi > s.holders[j].hi {
						s.holders[j].hi = hi
					}
				}
			}
			m.wlStats.Acquires[kind]++
			m.wlSites[d.ID].ReentrantAcquires++
			return false, true
		}
	}

	key := SyncKey{SyncWeakLock, int64(d.ID)}
	if !m.gate(t, key, EvWLAcquire) {
		// Gated by the replay order log: not a stall; no timeout arms.
		return true, true
	}
	if s.conflicts(t.id, lo, hi) {
		m.wlAddWaiter(s, t, lo, hi, t.clock+m.wlTimeout)
		m.block(t)
		return true, true
	}
	if m.cfg.CheckLockOrder && len(t.held) > 0 {
		last := t.held[len(t.held)-1]
		if last.kind > kind || (last.kind == kind && last.id >= d.ID) {
			m.fail(t, "weak-lock order violation: %s-lock %d acquired while holding %s-lock %d",
				kind, d.ID, last.kind, last.id)
			return false, false
		}
	}
	m.wlRemoveWaiter(s, t)
	s.holders = append(s.holders, wlHolder{tid: t.id, lo: lo, hi: hi})
	t.insertHeld(heldWL{id: d.ID, kind: kind, lo: lo, hi: hi, depth: 1, acquiredAt: t.clock})
	// unblocked consumes the thread's blocking episode, so capture the
	// stall once and attribute it to both the per-kind and per-site
	// accounting.
	stall := m.unblocked(t)
	m.wlStats.Contention[kind] += stall
	m.wlStats.Acquires[kind]++
	st := &m.wlSites[d.ID]
	st.Acquires++
	if stall > 0 {
		st.Contended++
		st.StallCycles += stall
	}
	m.commitWL(t, key, kind, EvWLAcquire)
	m.syncEvent(key, EvWLAcquire, t.id, t.clock)
	return false, true
}

func (m *machine) wlRelease(t *thread, nargs int, args []int64) bool {
	kind := weaklock.Kind(args[0])
	id := args[1]
	if kind < 0 || kind >= weaklock.NumKinds {
		m.fail(t, "weak-lock release with bad kind %d", args[0])
		return false
	}
	d := m.wlDesc(t, id)
	if d == nil {
		return false
	}
	idx := -1
	for i, h := range t.held {
		if h.id == d.ID {
			idx = i
			break
		}
	}
	if idx < 0 {
		m.fail(t, "release of weak-lock %d not held", d.ID)
		return false
	}
	// Reentrant inner release: just drop a level.
	if t.held[idx].depth > 1 {
		t.held[idx].depth--
		m.wlStats.Releases[kind]++
		m.wlSites[d.ID].ReentrantReleases++
		m.finish(t, nargs, m.cost.WeakLockOp, false, 0)
		return true
	}
	key := SyncKey{SyncWeakLock, int64(d.ID)}
	if !m.gate(t, key, EvWLRelease) {
		return false
	}
	t.held = append(t.held[:idx], t.held[idx+1:]...)
	s := &m.wls[d.ID]
	s.removeHolder(t.id)
	m.wlStats.Releases[kind]++
	m.wlSites[d.ID].Releases++
	m.commitWL(t, key, kind, EvWLRelease)
	m.syncEvent(key, EvWLRelease, t.id, t.clock)
	m.finish(t, nargs, m.cost.WeakLockOp, false, 0)
	for _, w := range s.waiters {
		m.boostWake(w.t, t)
		m.wake(w.t, t.clock)
	}
	return true
}

// wlReacquire re-acquires weak-locks lost to a forced preemption; returns
// false if the thread blocked.
func (m *machine) wlReacquire(t *thread) bool {
	for len(t.reacquire) > 0 {
		r := t.reacquire[0]
		d := m.cfg.WL.Lock(r.id)
		if d == nil {
			m.fail(t, "reacquire of unknown weak-lock %d", r.id)
			return false
		}
		blocked, ok := m.wlTryAcquire(t, d, r.kind, r.lo, r.hi)
		if !ok || blocked {
			return false
		}
		// Restore the pre-preemption reentrancy depth.
		for i := range t.held {
			if t.held[i].id == r.id {
				t.held[i].depth = r.depth
			}
		}
		t.reacquire = t.reacquire[1:]
	}
	return true
}

// fireTimeoutsBefore forces weak-lock releases whose stall deadline is at or
// before `now`. Returns true if any fired (paper §2.3: the kernel preempts
// the owner and forces it to release and reacquire).
func (m *machine) fireTimeoutsBefore(now int64) bool {
	fired := false
	for {
		id, w := m.earliestWLDeadline()
		if w == nil || w.deadline > now {
			return fired
		}
		m.forceRelease(id, *w)
		fired = true
	}
}

// fireEarliestTimeout forces the earliest pending weak-lock timeout, if any.
func (m *machine) fireEarliestTimeout() bool {
	id, w := m.earliestWLDeadline()
	if w == nil {
		return false
	}
	m.forceRelease(id, *w)
	return true
}

// earliestWLDeadline returns the stalled waiter whose deadline comes first;
// a tie goes to the lower lock ID, then to the earlier waiter on that lock.
// It runs before every dispatch of a run with timeouts, and returns at once
// when no waiter is queued.
func (m *machine) earliestWLDeadline() (weaklock.ID, *wlWaiter) {
	var bestID weaklock.ID
	var best *wlWaiter
	if m.wlStalled == 0 {
		return bestID, best
	}
	for id := range m.wls {
		s := &m.wls[id]
		for i := range s.waiters {
			w := &s.waiters[i]
			if w.t.state != tBlocked {
				continue
			}
			// Slots are scanned in ID order, so a strict compare keeps
			// the lower lock on a tie.
			if best == nil || w.deadline < best.deadline {
				best, bestID = w, weaklock.ID(id)
			}
		}
	}
	return bestID, best
}

// forceRelease preempts the holders conflicting with the stalled waiter,
// forcing each to release now and reacquire before executing further. The
// forced release is committed to the order log with a deterministic anchor
// (instruction count, sync count, blocked flag) so replay reproduces the
// exact preemption (paper §2.3).
func (m *machine) forceRelease(id weaklock.ID, w wlWaiter) {
	s := &m.wls[id]
	key := SyncKey{SyncWeakLock, int64(id)}
	// Consume the waiter's stall record: if the retry stalls again, a
	// fresh timeout period starts (otherwise the same deadline would fire
	// forever).
	m.wlRemoveWaiter(s, w.t)
	conf := s.wlConflict(w.t.id, w.lo, w.hi)
	for _, h := range conf {
		owner := m.threads[h.tid]
		s.removeHolder(h.tid)
		var lost heldWL
		for i, held := range owner.held {
			if held.id == id {
				lost = held
				owner.held = append(owner.held[:i], owner.held[i+1:]...)
				break
			}
		}
		owner.reacquire = append(owner.reacquire, lost)
		if owner.clock < w.deadline {
			owner.clock = w.deadline
		}
		m.wlStats.Timeouts++
		m.wlStats.Releases[lost.kind]++
		m.wlSites[id].Forced++
		anchor := ForcedAnchor{
			Instr:   owner.instrCount,
			Sync:    owner.syncSeq,
			Blocked: owner.state == tBlocked,
		}
		if m.pm != nil {
			cost := m.pm.CommitForced(key, owner.id, anchor, owner.clock)
			m.loadForced(owner)
			owner.clock += cost
			m.wlStats.Logs[lost.kind]++
			m.wlStats.LogCycles[lost.kind] += cost
			m.wakeGated(key)
		} else if m.cfg.Monitor != nil {
			m.commitWL(owner, key, lost.kind, EvWLForcedRelease)
		}
		m.syncEvent(key, EvWLForcedRelease, owner.id, owner.clock)
	}
	// The stalled waiter retries at the deadline.
	m.wake(w.t, w.deadline)
}

// ---------------------------------------------------------------------------
// Replay-side forced preemption injection

// loadForced caches t's next scheduled forced preemption. The monitor's
// schedule for a thread changes only when that thread's preemption is
// committed (the PreemptionMonitor contract), so the cache is loaded when
// the thread is created and reloaded after each CommitForced for it.
func (m *machine) loadForced(t *thread) {
	if m.pm != nil {
		t.forcedKey, t.forced, t.hasForced = m.pm.NextForced(t.id)
	}
}

// forcedDue reports whether t has reached its next scheduled forced
// preemption's anchor counters.
func (t *thread) forcedDue() bool {
	return t.hasForced && t.instrCount == t.forced.Instr && t.syncSeq == t.forced.Sync
}

// checkForcedAt fires t's due forced preemption (forcedDue) before its
// next instruction. Returns (stop, fired): stop means the slice must end
// (the thread parked waiting for its turn on the key); fired means the
// preemption was injected and the slice should re-check state.
func (m *machine) checkForcedAt(t *thread) (stop, fired bool) {
	key, anchor := t.forcedKey, t.forced
	if anchor.Blocked {
		// Blocked-anchored preemptions fire while the thread is parked
		// inside its operation, not before the operation executes.
		return false, false
	}
	if !m.cfg.Monitor.TryProceed(key, EvWLForcedRelease, t.id) {
		// Not this key's turn yet: park until the preceding events commit.
		m.parkGated(t, key)
		return true, false
	}
	if !m.doInjectForced(t, key, anchor) {
		return true, false // fatal
	}
	return false, true
}

// injectBlockedForced scans parked threads for due blocked-anchored
// preemptions and fires at most one; returns true if it did.
func (m *machine) injectBlockedForced() bool {
	if m.pm == nil {
		return false
	}
	for _, t := range m.threads {
		if t.state != tBlocked || !t.forcedDue() || !t.forced.Blocked {
			continue
		}
		if !m.cfg.Monitor.TryProceed(t.forcedKey, EvWLForcedRelease, t.id) {
			continue // preceding events on the key must commit first
		}
		return m.doInjectForced(t, t.forcedKey, t.forced)
	}
	return false
}

// doInjectForced performs the forced release of key's lock held by t,
// exactly as the recorded preemption did: the holding is removed, a
// reacquire obligation is queued, and the log record is consumed.
func (m *machine) doInjectForced(t *thread, key SyncKey, anchor ForcedAnchor) bool {
	id := weaklock.ID(key.ID)
	idx := -1
	for i, h := range t.held {
		if h.id == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		m.fail(t, "replay divergence: forced preemption of weak-lock %d not held at anchor (%d,%d)",
			id, anchor.Instr, anchor.Sync)
		return false
	}
	lost := t.held[idx]
	t.held = append(t.held[:idx], t.held[idx+1:]...)
	s := &m.wls[id]
	s.removeHolder(t.id)
	t.reacquire = append(t.reacquire, lost)

	m.wlStats.Timeouts++
	m.wlStats.Releases[lost.kind]++
	m.wlSites[id].Forced++
	cost := m.pm.CommitForced(key, t.id, anchor, t.clock)
	m.loadForced(t)
	t.clock += cost
	m.wlStats.Logs[lost.kind]++
	m.wlStats.LogCycles[lost.kind] += cost
	m.syncEvent(key, EvWLForcedRelease, t.id, t.clock)
	m.wakeGated(key)
	for _, w := range s.waiters {
		m.wake(w.t, t.clock)
	}
	return true
}
