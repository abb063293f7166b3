package vm

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/oskit"
	"repro/internal/weaklock"
)

// checkWLState checks the weak-lock runtime's invariants on m: every
// thread's held list is in strict (kind, id) order, each held lock has
// exactly one holder entry for the thread in its slot and the slots hold
// no other entries, and the stalled-waiter count equals the waiters
// queued on all slots.
func checkWLState(t *testing.T, m *machine, when string) {
	t.Helper()
	holders := 0
	for _, th := range m.threads {
		for i, h := range th.held {
			if i > 0 {
				p := th.held[i-1]
				if p.kind > h.kind || p.kind == h.kind && p.id >= h.id {
					t.Fatalf("%s: t%d held out of (kind, id) order: %+v", when, th.id, th.held)
				}
			}
			n := 0
			for _, sh := range m.wls[h.id].holders {
				if sh.tid == th.id {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("%s: t%d holds lock %d but its slot lists it %d times", when, th.id, h.id, n)
			}
			holders++
		}
	}
	queued, listed := 0, 0
	for i := range m.wls {
		queued += len(m.wls[i].waiters)
		listed += len(m.wls[i].holders)
	}
	if listed != holders {
		t.Fatalf("%s: slots list %d holders, threads hold %d locks", when, listed, holders)
	}
	if m.wlStalled != queued {
		t.Fatalf("%s: stalled-waiter count %d, %d waiters queued", when, m.wlStalled, queued)
	}
}

// wlLoopProgram runs iters iterations of two nested weak-lock regions on
// locks 0 and 1, the shape the instrumenter emits for nested sites.
func wlLoopProgram(t *testing.T, iters int) *Program {
	return compileSrc(t, fmt.Sprintf(`
int g;
int main(void) {
    for (int i = 0; i < %d; i++) {
        wl_acquire(1, 0, `+inf+`);
        wl_acquire(3, 1, `+inf+`);
        g = g + 1;
        wl_release(3, 1);
        wl_release(1, 0);
    }
    print(g);
    return 0;
}`, iters))
}

// A weak-lock acquire and release must not allocate once the run's
// buffers have grown: doubling the loop leaves the allocation count
// unchanged (see TestDisabledObservabilityAddsNoAllocs for the method).
func TestWeakLockAcquireAddsNoAllocs(t *testing.T) {
	short := wlLoopProgram(t, 2_000)
	long := wlLoopProgram(t, 4_000)
	tbl := wlTable(2)
	runOnce := func(p *Program) {
		r := Run(p, Config{Inputs: LiveInputs{OS: oskit.NewWorld(1)}, Seed: 1, WL: tbl})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	runOnce(short)
	runOnce(long)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := testing.AllocsPerRun(5, func() { runOnce(short) })
	b := testing.AllocsPerRun(5, func() { runOnce(long) })
	if a != b {
		t.Errorf("doubling the weak-lock loop changed allocations: %v → %v (acquire and release must not allocate)", a, b)
	}
}

// randomWLProgram writes a program whose threads acquire and release
// weak-locks in random order: acquires in and out of (kind, id) order,
// reentrant acquires of held locks, releases of any held lock, and
// overlapping and disjoint ranges. Every thread releases all it holds
// before it returns.
func randomWLProgram(rng *rand.Rand, threads, locks, ops int) string {
	ranges := []string{inf, inf, "0, 10", "5, 20", "30, 40"}
	var b strings.Builder
	b.WriteString("int g[16];\n")
	for th := 0; th < threads; th++ {
		fmt.Fprintf(&b, "void w%d(int n) {\n", th)
		depth := make([]int, locks)
		for i := 0; i < ops; i++ {
			var held []int
			for id, d := range depth {
				if d > 0 {
					held = append(held, id)
				}
			}
			switch r := rng.Intn(10); {
			case r < 4:
				id := rng.Intn(locks)
				fmt.Fprintf(&b, "    wl_acquire(%d, %d, %s);\n", rng.Intn(int(weaklock.NumKinds)), id, ranges[rng.Intn(len(ranges))])
				depth[id]++
			case r < 7 && len(held) > 0:
				id := held[rng.Intn(len(held))]
				fmt.Fprintf(&b, "    wl_release(%d, %d);\n", rng.Intn(int(weaklock.NumKinds)), id)
				depth[id]--
			default:
				fmt.Fprintf(&b, "    for (int i = 0; i < %d; i++) { g[%d] = g[%d] + n; }\n",
					rng.Intn(6), rng.Intn(16), rng.Intn(16))
			}
		}
		for id, d := range depth {
			for ; d > 0; d-- {
				fmt.Fprintf(&b, "    wl_release(3, %d);\n", id)
			}
		}
		b.WriteString("}\n")
	}
	b.WriteString("int main(void) {\n    int t[4];\n")
	for th := 0; th < threads; th++ {
		fmt.Fprintf(&b, "    t[%d] = spawn(w%d, %d);\n", th, th, th+1)
	}
	for th := 0; th < threads; th++ {
		fmt.Fprintf(&b, "    join(t[%d]);\n", th)
	}
	b.WriteString("    print(g[0]);\n    return 0;\n}\n")
	return b.String()
}

// wlMonitor is a recording monitor that never gates, charges the
// recorder's log cost and keeps every forced release's anchor. With m set
// it also checks checkWLState at every gate and commit: each change to
// weak-lock state (acquire, release, forced release) is followed by a
// commit, and each stall by the stalled thread's next gate, so the checks
// see the state after every weak-lock operation.
type wlMonitor struct {
	t      *testing.T
	m      *machine
	forced []ForcedAnchor
}

func (w *wlMonitor) check() {
	if w.m != nil {
		checkWLState(w.t, w.m, fmt.Sprintf("step %d", w.m.steps))
	}
}

func (w *wlMonitor) TryProceed(SyncKey, SyncEventKind, int) bool {
	w.check()
	return true
}

func (w *wlMonitor) Commit(SyncKey, SyncEventKind, int, int64) int64 {
	w.check()
	return DefaultCost().LogEvent
}

func (w *wlMonitor) CommitForced(_ SyncKey, _ int, a ForcedAnchor, _ int64) int64 {
	w.check()
	w.forced = append(w.forced, a)
	return DefaultCost().LogEvent
}

func (w *wlMonitor) NextForced(int) (SyncKey, ForcedAnchor, bool) {
	return SyncKey{}, ForcedAnchor{}, false
}

// TestWeakLockStateProperties drives random weak-lock programs with short
// timeouts, so threads stall, time out and are forcibly preempted, and
// checks checkWLState throughout each run (wlMonitor) and at its
// end. A run that completes ends with no waiter counted as stalled.
func TestWeakLockStateProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	completed, timeouts := 0, int64(0)
	const programs = 200
	for prog := 0; prog < programs; prog++ {
		src := randomWLProgram(rng, 2+rng.Intn(3), 1+rng.Intn(4), 4+rng.Intn(12))
		mon := &wlMonitor{t: t}
		m := newMachine(compileSrc(t, src), Config{
			Inputs: LiveInputs{OS: oskit.NewWorld(1)}, Monitor: mon, Seed: uint64(prog),
			WL: wlTable(4), WLTimeout: int64(20 + rng.Intn(300)),
		})
		mon.m = m
		m.run()
		checkWLState(t, m, fmt.Sprintf("program %d at the end", prog))
		if m.fatal != nil {
			continue
		}
		completed++
		timeouts += m.wlStats.Timeouts
		if m.wlStalled != 0 {
			t.Errorf("program %d ended with %d stalled waiters counted", prog, m.wlStalled)
		}
	}
	if completed < programs*3/4 || timeouts == 0 {
		t.Fatalf("%d of %d programs completed with %d timeouts; the generator no longer exercises stalls", completed, programs, timeouts)
	}
	t.Logf("%d of %d programs completed, %d timeouts", completed, programs, timeouts)
}

// runningOwnerSrc keeps weak-lock 0 held through a long loop while a
// waiter acquires it three times, so a recording with a short timeout
// forces preemptions of a running owner.
const runningOwnerSrc = `
int g;
int w;
void owner(int n) {
    wl_acquire(3, 0, ` + inf + `);
    for (int i = 0; i < 200000; i++) {
        g = g + 1;
    }
    wl_release(3, 0);
}
void waiter(int n) {
    for (int k = 0; k < 3; k++) {
        wl_acquire(3, 0, ` + inf + `);
        w = w * 7 + g;
        wl_release(3, 0);
        for (int j = 0; j < 2000; j++) { }
    }
}
int main(void) {
    int t1 = spawn(owner, 0);
    int t2 = spawn(waiter, 0);
    join(t1);
    join(t2);
    print(g);
    print(w);
    return 0;
}`

// TestTimeoutOutcomePinned pins two recordings whose weak-lock timeouts
// fire, one preempting a parked holder and one a running holder: the
// output, how many timeouts fired, the makespan and each forced release's
// anchor. No benchmark cell times out, so this is what shows the deadline
// scan fires forced preemptions at the same simulated times.
func TestTimeoutOutcomePinned(t *testing.T) {
	for _, c := range []struct {
		name, src string
		seed      uint64
		timeout   int64
		want      string
	}{
		{"parked holder", singleHolderSrc, 5, 20_000,
			`output "201\n", timeouts 1, makespan 65510, anchors [{15 3 true}]`},
		{"running holder", runningOwnerSrc, 3, 20_000,
			`output "200000\n85589\n", timeouts 3, makespan 3600321, ` +
				`anchors [{20089 1 false} {64147 2 false} {108243 3 false}]`},
	} {
		mon := &wlMonitor{}
		r := Run(compileSrc(t, c.src), Config{
			Inputs: LiveInputs{OS: oskit.NewWorld(1)}, Monitor: mon,
			Seed: c.seed, WL: wlTable(1), WLTimeout: c.timeout,
		})
		if r.Err != nil {
			t.Fatalf("%s: %v", c.name, r.Err)
		}
		got := fmt.Sprintf("output %q, timeouts %d, makespan %d, anchors %v",
			r.Output, r.WLStats.Timeouts, r.Makespan, mon.forced)
		if got != c.want {
			t.Errorf("%s: timeout run changed:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestEarliestDeadlineTieBreak pins the deadline scan's choice: the
// earliest deadline among blocked waiters, a tie going to the lower lock
// ID and then to the earlier waiter on that lock, and nothing when no
// waiter is queued.
func TestEarliestDeadlineTieBreak(t *testing.T) {
	m := newMachine(compileSrc(t, "int main(void) { return 0; }"),
		Config{Inputs: LiveInputs{OS: oskit.NewWorld(1)}, WL: wlTable(3)})
	if _, w := m.earliestWLDeadline(); w != nil {
		t.Fatalf("no waiter queued, scan returned %+v", *w)
	}
	th := make([]*thread, 4)
	for i := range th {
		th[i] = &thread{id: i, state: tBlocked}
	}
	m.wlAddWaiter(&m.wls[2], th[0], 0, 0, 100)
	m.wlAddWaiter(&m.wls[1], th[1], 0, 0, 100)
	m.wlAddWaiter(&m.wls[1], th[2], 0, 0, 100)
	m.wlAddWaiter(&m.wls[0], th[3], 0, 0, 200)
	for _, want := range []struct {
		id  weaklock.ID
		tid int
	}{{1, 1}, {1, 2}, {2, 0}, {0, 3}} {
		id, w := m.earliestWLDeadline()
		if w == nil || id != want.id || w.t.id != want.tid {
			t.Fatalf("scan chose lock %d waiter %+v, want lock %d thread %d", id, w, want.id, want.tid)
		}
		w.t.state = tReady // a woken waiter is skipped
	}
	if _, w := m.earliestWLDeadline(); w != nil {
		t.Fatalf("every waiter woken, scan returned %+v", *w)
	}
}
