package vm

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/minic/types"
	"repro/internal/weaklock"
)

// Run executes the program to completion under cfg and returns the result.
// Execution is fully deterministic given (program, cfg.Seed, input world).
func Run(p *Program, cfg Config) *Result {
	m := newMachine(p, cfg)
	m.run()
	return m.result()
}

type tstate int

const (
	tReady tstate = iota
	tBlocked
	tDone
)

type frame struct {
	fn        *FuncCode
	pc        int
	fp        int64
	wantValue bool
}

// resumeKind tracks multi-phase builtin operations across block/wake cycles.
type resumeKind int

const (
	resumeNone       resumeKind = iota
	resumeCondRelock            // woken from cond_wait; must re-acquire the mutex
)

// heldWL is one weak-lock currently held by a thread. Weak-locks are
// reentrant per thread (nested instrumented regions may share a pair's
// lock); depth counts the nesting and the held range is the union of every
// level's range.
type heldWL struct {
	id         weaklock.ID
	kind       weaklock.Kind // granularity of the outermost acquire site
	lo, hi     int64
	depth      int
	acquiredAt int64
}

type thread struct {
	id    int
	state tstate
	clock int64

	frames []frame
	eval   []int64
	sp     int64 // next free stack word
	spBase int64 // bottom of this thread's stack region
	spTop  int64 // exclusive top

	instrCount int64 // executed instructions (replay preemption anchor)
	syncSeq    int64 // committed sync operations (anchor disambiguation)

	// The thread's next replay-scheduled forced preemption, cached from
	// the PreemptionMonitor (loadForced) so the per-instruction probe is a
	// flag test and two compares.
	hasForced bool
	forcedKey SyncKey
	forced    ForcedAnchor

	// Deterministic-execution state: dc(t) = instrCount + detBoost is the
	// logical clock; detBoost fast-forwards a woken sleeper past its
	// waker; detParked marks threads parked by the arbiter.
	detBoost  int64
	detParked bool

	// Blocking bookkeeping.
	blockStart int64 // clock when the current blocked episode began
	blocking   bool

	// Multi-phase builtin state.
	resume      resumeKind
	condMutex   int64 // mutex to re-acquire after cond_wait
	exitWaiters []*thread

	// Weak-locks currently held, and locks that a forced preemption
	// requires this thread to re-acquire before it may continue.
	held      []heldWL
	reacquire []heldWL

	retVal int64 // thread function's return value, kept for diagnostics
}

func (t *thread) push(v int64) { t.eval = append(t.eval, v) }
func (t *thread) pop() int64 {
	v := t.eval[len(t.eval)-1]
	t.eval = t.eval[:len(t.eval)-1]
	return v
}
func (t *thread) peekN(n int) []int64 { return t.eval[len(t.eval)-n:] }
func (t *thread) popN(n int)          { t.eval = t.eval[:len(t.eval)-n] }

// insertHeld adds h to t.held at its (kind, id) place, the order the
// lock-order check reads. A thread holds each lock at most once (a
// re-acquire takes the reentrant path), so the keys are distinct; the
// instrumenter acquires in that order, so this is nearly always an append.
func (t *thread) insertHeld(h heldWL) {
	i := len(t.held)
	for i > 0 && (t.held[i-1].kind > h.kind || t.held[i-1].kind == h.kind && t.held[i-1].id > h.id) {
		i--
	}
	t.held = append(t.held, heldWL{})
	copy(t.held[i+1:], t.held[i:])
	t.held[i] = h
}

type machine struct {
	prog *Program
	cfg  Config
	cost CostModel

	// pm is cfg.Monitor as a PreemptionMonitor, asserted once; nil when
	// the monitor schedules and logs no forced preemptions.
	pm PreemptionMonitor

	mem     memory
	memTop  int64
	heapTop int64

	threads    []*thread
	stackWords int64
	stackBase  int64
	maxThreads int

	mutexes  map[int64]*mutexState
	barriers map[int64]*barrierState
	conds    map[int64]*condState

	// gateWaiters holds the threads parked on a replay gate, by key, for
	// every key but a weak-lock of the table (wls holds those).
	gateWaiters map[SyncKey][]*thread

	// Event-sink runtime: the hot loop appends to events (a plain slice,
	// no interface dispatch) and flushEvents drains full batches to sinks.
	// observing gates emission so un-observed runs pay only a branch.
	sinks     []EventSink
	events    []Event
	observing bool

	output []byte

	counters  Counters
	wlStats   weaklock.Stats
	wlSites   []weaklock.SiteStats // per-lock counters, indexed by ID
	wls       []wlLockState        // per-lock runtime state, indexed by ID
	wlStalled int                  // waiters queued on all of wls

	dispatches   uint64
	steps        int64
	maxSteps     int64
	wlTimeout    int64
	detWakeSteps int64

	exited   bool
	exitCode int64
	fatal    error
}

func newMachine(p *Program, cfg Config) *machine {
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCost()
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 2_000_000_000
	}
	if cfg.StackWords == 0 {
		cfg.StackWords = DefaultStackWords
	}
	if cfg.HeapWords == 0 {
		cfg.HeapWords = DefaultHeapWords
	}
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = 64
	}
	if cfg.WLTimeout == 0 {
		cfg.WLTimeout = 2_000_000
	}
	heapBase := p.HeapBase
	stackBase := heapBase + cfg.HeapWords
	memTop := stackBase + int64(cfg.MaxThreads)*cfg.StackWords

	m := &machine{
		prog:        p,
		cfg:         cfg,
		cost:        cfg.Cost,
		mem:         newMemory(memTop),
		memTop:      memTop,
		heapTop:     heapBase,
		stackWords:  cfg.StackWords,
		stackBase:   stackBase,
		maxThreads:  cfg.MaxThreads,
		mutexes:     make(map[int64]*mutexState),
		barriers:    make(map[int64]*barrierState),
		conds:       make(map[int64]*condState),
		gateWaiters: make(map[SyncKey][]*thread),
		maxSteps:    cfg.MaxSteps,
		wlTimeout:   cfg.WLTimeout,
	}
	m.pm, _ = cfg.Monitor.(PreemptionMonitor)
	if cfg.WL != nil {
		m.wlSites = make([]weaklock.SiteStats, cfg.WL.Len())
		m.wls = make([]wlLockState, cfg.WL.Len())
	}
	m.sinks = append(m.sinks, cfg.Sinks...)
	if len(m.sinks) > 0 {
		m.observing = true
		m.events = make([]Event, 0, EventBatchSize)
	}
	m.mem.write(GlobalBase, p.GlobalWords)
	return m
}

func (m *machine) result() *Result {
	m.flushEvents() // deliver the tail batch before observers are read
	r := &Result{
		Output:   m.output,
		ExitCode: m.exitCode,
		Counters: m.counters,
		WLStats:  m.wlStats,
		WLSites:  m.wlSites,
		Threads:  len(m.threads),
		Err:      m.fatal,
	}
	for _, t := range m.threads {
		if t.clock > r.Makespan {
			r.Makespan = t.clock
		}
	}
	h := fnv.New64a()
	var b [8]byte
	write := func(v int64) {
		putU64(b[:], uint64(v))
		h.Write(b[:])
	}
	for a := int64(GlobalBase); a < m.prog.HeapBase; a++ {
		write(m.mem.load(a))
	}
	for a := m.prog.HeapBase; a < m.heapTop; a++ {
		write(m.mem.load(a))
	}
	h.Write(m.output)
	r.MemHash = h.Sum64()
	return r
}

func (m *machine) fail(t *thread, format string, args ...any) {
	if m.fatal == nil {
		tid, clock := -1, int64(0)
		if t != nil {
			tid, clock = t.id, t.clock
		}
		m.fatal = &RunError{Thread: tid, Clock: clock, Msg: fmt.Sprintf(format, args...)}
	}
}

// splitmix64 is the deterministic hash behind scheduling jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (m *machine) jitter(tid int) uint64 {
	return splitmix64(m.cfg.Seed ^ uint64(tid)*0x9e3779b9 ^ m.dispatches<<17)
}

// ---------------------------------------------------------------------------
// Threads

func (m *machine) newThread(fnIdx int, args []int64, startClock int64) (*thread, error) {
	id := len(m.threads)
	if id >= m.maxThreads {
		return nil, fmt.Errorf("thread limit (%d) exceeded", m.maxThreads)
	}
	fn := m.prog.Funcs[fnIdx]
	t := &thread{
		id:     id,
		state:  tReady,
		clock:  startClock,
		spBase: m.stackBase + int64(id)*m.stackWords,
	}
	t.spTop = t.spBase + m.stackWords
	t.sp = t.spBase
	if fn.FrameWords > m.stackWords {
		return nil, fmt.Errorf("frame of %s exceeds stack", fn.Name)
	}
	fp := t.sp
	t.sp += fn.FrameWords
	for i, a := range args {
		m.mem.store(fp+int64(i), a)
	}
	t.frames = append(t.frames, frame{fn: fn, fp: fp, wantValue: true})
	m.threads = append(m.threads, t)
	m.loadForced(t)
	if m.cfg.Funcs != nil {
		m.cfg.Funcs.Enter(t.id, fn.Index, t.clock)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Scheduler

func (m *machine) run() {
	mainIdx, ok := m.prog.FuncIdx["main"]
	if !ok {
		m.fail(nil, "no main function")
		return
	}
	if _, err := m.newThread(mainIdx, nil, 0); err != nil {
		m.fail(nil, "%v", err)
		return
	}

	// Livelock guard: scheduler iterations that execute no instructions
	// (timeout storms, wake/re-block cycles) are bounded.
	lastSteps := int64(-1)
	idleIters := 0
	for m.fatal == nil && !m.exited {
		if m.steps == lastSteps {
			idleIters++
			if idleIters > 1_000_000 {
				m.fail(nil, "scheduler livelock: no instruction progress (%s)", m.schedulerState())
				return
			}
		} else {
			lastSteps = m.steps
			idleIters = 0
		}
		// Deterministically parked threads re-check the arbiter when any
		// logical clock advanced; waking them more often starves progress
		// (the parked thread has the lowest simulated clock and would be
		// dispatched forever).
		if m.cfg.Deterministic && m.steps != m.detWakeSteps {
			m.detWakeSteps = m.steps
			m.wakeDetParked()
		}
		// Replay-scheduled forced preemptions of parked threads fire as
		// soon as their anchor and key order allow.
		if m.injectBlockedForced() {
			continue
		}
		t := m.pickReady()
		if t == nil {
			// With everyone parked or blocked, the minimal-logical-clock
			// arbiter-parked thread has its turn by construction.
			if m.wakeMinDetParked() {
				continue
			}
			if !m.cfg.DisableTimeouts && m.fireEarliestTimeout() {
				continue
			}
			if m.allDone() {
				return
			}
			m.reportDeadlock()
			return
		}
		// Weak-lock timeouts that come due before this dispatch fire first
		// so forced preemptions happen at their simulated time.
		if !m.cfg.DisableTimeouts && m.fireTimeoutsBefore(t.clock) {
			continue
		}
		m.runSlice(t)
	}
}

// schedulerState summarizes thread states for livelock diagnostics.
func (m *machine) schedulerState() string {
	s := ""
	for _, t := range m.threads {
		state := "ready"
		switch t.state {
		case tBlocked:
			state = "blocked"
		case tDone:
			state = "done"
		}
		fn := "?"
		if len(t.frames) > 0 {
			fr := t.frames[len(t.frames)-1]
			fn = fmt.Sprintf("%s@%d", fr.fn.Name, fr.pc)
		}
		s += fmt.Sprintf("[t%d %s clk=%d held=%d reacq=%d %s]",
			t.id, state, t.clock, len(t.held), len(t.reacquire), fn)
	}
	s += fmt.Sprintf(" timeouts=%d", m.wlStats.Timeouts)
	return s
}

func (m *machine) pickReady() *thread {
	var best *thread
	var bestJit uint64
	for _, t := range m.threads {
		if t.state != tReady {
			continue
		}
		if best == nil || t.clock < best.clock ||
			(t.clock == best.clock && m.jitter(t.id) < bestJit) {
			best = t
			bestJit = m.jitter(t.id)
		}
	}
	return best
}

func (m *machine) allDone() bool {
	for _, t := range m.threads {
		if t.state != tDone {
			return false
		}
	}
	return true
}

func (m *machine) reportDeadlock() {
	blocked := ""
	for _, t := range m.threads {
		if t.state == tBlocked {
			if blocked != "" {
				blocked += ", "
			}
			blocked += fmt.Sprintf("t%d", t.id)
		}
	}
	m.fail(nil, "deadlock: blocked threads [%s]", blocked)
}

func (m *machine) runSlice(t *thread) {
	m.dispatches++
	quantum := 16 + int(m.jitter(t.id)%96)
	for i := 0; i < quantum; i++ {
		if m.fatal != nil || m.exited {
			return
		}
		// A replay-scheduled forced preemption anchored at this exact
		// point fires before the next instruction.
		if t.forcedDue() {
			if stop, fired := m.checkForcedAt(t); stop {
				return
			} else if fired {
				continue
			}
		}
		// A forced weak-lock preemption requires re-acquisition before the
		// thread may execute further (paper §2.3).
		if len(t.reacquire) > 0 {
			if !m.wlReacquire(t) {
				return // blocked
			}
		}
		if !m.step(t) {
			return // blocked, done, or faulted
		}
		m.steps++
		if m.steps > m.maxSteps {
			m.fail(t, "step limit exceeded (%d); runaway program?", m.maxSteps)
			return
		}
	}
}

// block parks t; the operation will be retried when woken.
func (m *machine) block(t *thread) {
	t.state = tBlocked
	if !t.blocking {
		t.blocking = true
		t.blockStart = t.clock
	}
}

// wake makes t ready at time at least `at`.
func (m *machine) wake(t *thread, at int64) {
	if t.state != tBlocked {
		return
	}
	if at > t.clock {
		t.clock = at
	}
	t.state = tReady
}

// unblocked finalizes a blocked episode and returns its duration.
func (m *machine) unblocked(t *thread) int64 {
	if !t.blocking {
		return 0
	}
	t.blocking = false
	d := t.clock - t.blockStart
	if d < 0 {
		d = 0
	}
	return d
}

// ---------------------------------------------------------------------------
// Instruction interpreter

// step executes one instruction of t. It returns false if the thread
// blocked (pc unchanged), finished, or the machine faulted.
func (m *machine) step(t *thread) bool {
	f := &t.frames[len(t.frames)-1]
	if f.pc >= len(f.fn.Code) {
		m.fail(t, "pc out of range in %s", f.fn.Name)
		return false
	}
	in := f.fn.Code[f.pc]
	cost := m.cost.Instr

	switch in.Op {
	case OpNop:

	case OpConst:
		t.push(in.Val)
	case OpAddrG:
		t.push(GlobalBase + in.Val)
	case OpAddrL:
		t.push(f.fp + in.Val)

	case OpLoad:
		addr := t.pop()
		if !m.validAddr(addr) {
			m.fail(t, "invalid load address %d (node %d in %s)", addr, in.Node, f.fn.Name)
			return false
		}
		t.push(m.mem.load(addr))
		m.counters.MemOps++
		if m.observing {
			m.emitAccess(t.id, addr, false, in.Node, t.clock)
		}

	case OpStore:
		v := t.pop()
		addr := t.pop()
		if !m.validAddr(addr) {
			m.fail(t, "invalid store address %d (node %d in %s)", addr, in.Node, f.fn.Name)
			return false
		}
		m.mem.store(addr, v)
		m.counters.MemOps++
		if m.observing {
			m.emitAccess(t.id, addr, true, in.Node, t.clock)
		}

	case OpDup:
		t.push(t.eval[len(t.eval)-1])
	case OpPop:
		t.pop()

	case OpNeg:
		t.push(-t.pop())
	case OpNot:
		if t.pop() == 0 {
			t.push(1)
		} else {
			t.push(0)
		}

	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpShl, OpShr, OpAnd, OpOr, OpXor,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		y := t.pop()
		x := t.pop()
		v, err := alu(in.Op, x, y)
		if err != nil {
			m.fail(t, "%v (node %d in %s)", err, in.Node, f.fn.Name)
			return false
		}
		t.push(v)

	case OpJmp:
		f.pc = int(in.Val)
		t.clock += cost
		t.instrCount++
		m.counters.Instrs++
		return true
	case OpJz:
		if t.pop() == 0 {
			f.pc = int(in.Val)
		} else {
			f.pc++
		}
		t.clock += cost
		t.instrCount++
		m.counters.Instrs++
		return true
	case OpJnz:
		if t.pop() != 0 {
			f.pc = int(in.Val)
		} else {
			f.pc++
		}
		t.clock += cost
		t.instrCount++
		m.counters.Instrs++
		return true

	case OpCall:
		return m.doCall(t, f, int(in.Val), in.N, false)
	case OpCallI:
		fv := t.eval[len(t.eval)-in.N-1]
		idx := FuncIndexOf(fv, len(m.prog.Funcs))
		if idx < 0 {
			m.fail(t, "indirect call through non-function value %d (node %d)", fv, in.Node)
			return false
		}
		return m.doCall(t, f, idx, in.N, true)

	case OpRet:
		v := t.pop()
		return m.doReturn(t, v)
	case OpRetVoid:
		return m.doReturn(t, 0)

	case OpBuiltin:
		return m.doBuiltin(t, f, types.BuiltinOp(in.Val), in.N, in)

	default:
		m.fail(t, "bad opcode %s", in.Op)
		return false
	}

	f.pc++
	t.clock += cost
	t.instrCount++
	m.counters.Instrs++
	return true
}

func (m *machine) validAddr(addr int64) bool {
	return addr >= GlobalBase && addr < m.memTop
}

func alu(op Op, x, y int64) (int64, error) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case OpAdd:
		return x + y, nil
	case OpSub:
		return x - y, nil
	case OpMul:
		return x * y, nil
	case OpDiv:
		if y == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return x / y, nil
	case OpMod:
		if y == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return x % y, nil
	case OpShl:
		return x << uint64(y&63), nil
	case OpShr:
		return x >> uint64(y&63), nil
	case OpAnd:
		return x & y, nil
	case OpOr:
		return x | y, nil
	case OpXor:
		return x ^ y, nil
	case OpEq:
		return b2i(x == y), nil
	case OpNe:
		return b2i(x != y), nil
	case OpLt:
		return b2i(x < y), nil
	case OpLe:
		return b2i(x <= y), nil
	case OpGt:
		return b2i(x > y), nil
	case OpGe:
		return b2i(x >= y), nil
	}
	return 0, fmt.Errorf("bad alu op")
}

func (m *machine) doCall(t *thread, f *frame, fnIdx, nargs int, indirect bool) bool {
	callee := m.prog.Funcs[fnIdx]
	if nargs != callee.NParams {
		m.fail(t, "call to %s with %d args, want %d", callee.Name, nargs, callee.NParams)
		return false
	}
	if t.sp+callee.FrameWords > t.spTop {
		m.fail(t, "stack overflow calling %s", callee.Name)
		return false
	}
	args := t.peekN(nargs)
	fp := t.sp
	for i, a := range args {
		m.mem.store(fp+int64(i), a)
	}
	t.popN(nargs)
	if indirect {
		t.pop() // the function value
	}
	t.sp += callee.FrameWords

	f.pc++ // return continues after the call
	wantValue := !callee.RetVoid || indirect
	t.frames = append(t.frames, frame{fn: callee, fp: fp, wantValue: wantValue})
	t.clock += m.cost.Instr + m.cost.Call
	t.instrCount++
	m.counters.Instrs++
	if m.cfg.Funcs != nil {
		m.cfg.Funcs.Enter(t.id, callee.Index, t.clock)
	}
	return true
}

func (m *machine) doReturn(t *thread, v int64) bool {
	fr := t.frames[len(t.frames)-1]
	if m.cfg.Funcs != nil {
		m.cfg.Funcs.Exit(t.id, fr.fn.Index, t.clock)
	}
	if m.cfg.CheckLockOrder {
		// Returning while holding weak-locks indicates a broken
		// instrumentation region structure.
		for _, h := range t.held {
			if m.cfg.WL != nil {
				d := m.cfg.WL.Lock(h.id)
				if d != nil && d.Kind != weaklock.KindFunc {
					m.fail(t, "return from %s while holding %s-lock %d", fr.fn.Name, d.Kind, h.id)
					return false
				}
			}
		}
	}
	t.sp = fr.fp
	t.frames = t.frames[:len(t.frames)-1]
	t.clock += m.cost.Instr
	t.instrCount++
	m.counters.Instrs++
	if len(t.frames) == 0 {
		// Thread exit.
		t.retVal = v
		t.state = tDone
		if t.id == 0 {
			m.exitCode = v
			m.exited = true
		}
		for _, w := range t.exitWaiters {
			m.boostWake(w, t)
			m.wake(w, t.clock)
			m.syncEvent(SyncKey{SyncSpawn, int64(t.id)}, EvJoin, w.id, t.clock)
		}
		t.exitWaiters = nil
		return false
	}
	if fr.wantValue {
		t.push(v)
	}
	return true
}

// ---------------------------------------------------------------------------
// Output helpers

func (m *machine) appendPrint(v int64) {
	m.output = append(m.output, strconv.FormatInt(v, 10)...)
	m.output = append(m.output, '\n')
}

func (m *machine) appendPrints(t *thread, addr int64) bool {
	for i := 0; ; i++ {
		if !m.validAddr(addr) {
			m.fail(t, "prints: invalid address %d", addr)
			return false
		}
		w := m.mem.load(addr)
		if w == 0 {
			return true
		}
		m.output = append(m.output, byte(w))
		addr++
		if i > 1<<20 {
			m.fail(t, "prints: unterminated string")
			return false
		}
	}
}
