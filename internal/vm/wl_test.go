package vm

import (
	"strings"
	"testing"

	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/oskit"
	"repro/internal/weaklock"
)

// wlTable builds a table with n unranged instruction locks.
func wlTable(n int) *weaklock.Table {
	t := weaklock.NewTable()
	for i := 0; i < n; i++ {
		t.Add(weaklock.KindInstr, "t", false)
	}
	return t
}

// runWL runs src like Run does, and checks the weak-lock runtime's
// invariants at the end (checkWLState); a run that completes leaves no
// stalled waiter counted.
func runWL(t *testing.T, src string, tbl *weaklock.Table, seed uint64, timeout int64) *Result {
	t.Helper()
	f := parser.MustParse("t.mc", src)
	info := types.MustCheck(f)
	p, err := Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	w := oskit.NewWorld(1)
	m := newMachine(p, Config{Inputs: LiveInputs{OS: w}, Seed: seed, WL: tbl, WLTimeout: timeout})
	m.run()
	if m.wls != nil {
		checkWLState(t, m, "end of run")
		if m.fatal == nil && m.wlStalled != 0 {
			t.Errorf("run ended with %d stalled waiters counted", m.wlStalled)
		}
	}
	return m.result()
}

const inf = "-4611686018427387904, 4611686018427387904"

func TestWeakLockMutualExclusion(t *testing.T) {
	src := `
int g;
void worker(int n) {
    for (int i = 0; i < n; i++) {
        wl_acquire(3, 0, ` + inf + `);
        int tmp = g;
        g = tmp + 1;
        wl_release(3, 0);
    }
}
int main(void) {
    int t1 = spawn(worker, 500);
    int t2 = spawn(worker, 500);
    join(t1); join(t2);
    print(g);
    return 0;
}`
	for seed := uint64(0); seed < 4; seed++ {
		r := runWL(t, src, wlTable(1), seed, 0)
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seed, r.Err)
		}
		if string(r.Output) != "1000\n" {
			t.Fatalf("seed %d: weak-lock failed to exclude: %q", seed, r.Output)
		}
		if r.WLStats.Acquires[weaklock.KindInstr] != 1000 {
			t.Fatalf("acquires %d", r.WLStats.Acquires[weaklock.KindInstr])
		}
		if r.WLStats.Timeouts != 0 {
			t.Fatalf("unexpected timeouts")
		}
	}
}

func TestRangedLocksDisjointRunParallel(t *testing.T) {
	// Two holders of the same lock with disjoint ranges must not contend.
	src := `
int arr[128];
void worker(int base) {
    int *p = arr;
    wl_acquire(1, 0, p + base, p + base + 63);
    for (int i = 0; i < 64; i++) {
        arr[base + i] = i;
    }
    wl_release(1, 0);
}
int main(void) {
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 64);
    join(t1); join(t2);
    return 0;
}`
	tbl := weaklock.NewTable()
	tbl.Add(weaklock.KindLoop, "ranged", true)
	r := runWL(t, src, tbl, 1, 0)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.WLStats.Contention[weaklock.KindLoop] != 0 {
		t.Errorf("disjoint ranges contended: %d cycles", r.WLStats.Contention[weaklock.KindLoop])
	}
}

func TestRangedLocksOverlapSerialize(t *testing.T) {
	src := `
int arr[128];
void worker(int base) {
    int *p = arr;
    wl_acquire(1, 0, p, p + 127);
    for (int i = 0; i < 64; i++) {
        arr[base + i] = i;
    }
    wl_release(1, 0);
}
int main(void) {
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 64);
    join(t1); join(t2);
    return 0;
}`
	tbl := weaklock.NewTable()
	tbl.Add(weaklock.KindLoop, "ranged", true)
	r := runWL(t, src, tbl, 1, 0)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.WLStats.Contention[weaklock.KindLoop] == 0 {
		t.Errorf("overlapping ranges should contend")
	}
}

func TestReentrantAcquire(t *testing.T) {
	src := `
int g;
int main(void) {
    wl_acquire(0, 0, ` + inf + `);
    wl_acquire(2, 0, ` + inf + `);
    g = 1;
    wl_release(2, 0);
    g = 2;
    wl_release(0, 0);
    print(g);
    return 0;
}`
	tbl := weaklock.NewTable()
	tbl.Add(weaklock.KindFunc, "f", false)
	r := runWL(t, src, tbl, 1, 0)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if string(r.Output) != "2\n" {
		t.Fatalf("output %q", r.Output)
	}
	// Outer + inner acquires both counted (at their site kinds).
	if r.WLStats.Acquires[weaklock.KindFunc] != 1 || r.WLStats.Acquires[weaklock.KindBB] != 1 {
		t.Fatalf("acquire counts %+v", r.WLStats.Acquires)
	}
}

func TestTimeoutForcesRelease(t *testing.T) {
	// The holder blocks on a condition variable inside a weak-locked
	// region (paper §2.3's motivating case). The waiter times out, the
	// holder is forcibly preempted, the waiter proceeds and signals, and
	// everyone finishes.
	src := `
int m;
int cv;
int flag;
int g;
void holder(int n) {
    wl_acquire(3, 0, ` + inf + `);
    g = 1;
    lock(&m);
    while (flag == 0) {
        cond_wait(&cv, &m);
    }
    unlock(&m);
    g = 2;
    wl_release(3, 0);
}
void waiter(int n) {
    wl_acquire(3, 0, ` + inf + `);
    g = g + 10;
    wl_release(3, 0);
    lock(&m);
    flag = 1;
    cond_signal(&cv);
    unlock(&m);
}
int main(void) {
    int t1 = spawn(holder, 0);
    // Let the holder grab the weak-lock and park on the condvar.
    for (int i = 0; i < 3000; i++) { }
    int t2 = spawn(waiter, 0);
    join(t1); join(t2);
    print(g);
    return 0;
}`
	r := runWL(t, src, wlTable(1), 3, 50_000)
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if r.WLStats.Timeouts == 0 {
		t.Fatalf("expected a weak-lock timeout (forced preemption)")
	}
	if string(r.Output) != "2\n" {
		t.Fatalf("output %q, want 2 (holder finished last)", r.Output)
	}
}

// singleHolderSrc parks a weak-lock holder on a condition variable while
// a worker contends for the lock 200 times, so a recording with a short
// timeout forces several preemptions.
const singleHolderSrc = `
int m;
int cv;
int flag;
int count;
void holder(int n) {
    wl_acquire(3, 0, ` + inf + `);
    lock(&m);
    while (flag == 0) { cond_wait(&cv, &m); }
    unlock(&m);
    int tmp = count;
    count = tmp + 1;
    wl_release(3, 0);
}
void worker(int n) {
    for (int i = 0; i < n; i++) {
        wl_acquire(3, 0, ` + inf + `);
        int tmp = count;
        count = tmp + 1;
        wl_release(3, 0);
    }
    lock(&m);
    flag = 1;
    cond_signal(&cv);
    unlock(&m);
}
int main(void) {
    int t1 = spawn(holder, 0);
    for (int i = 0; i < 2000; i++) { }
    int t2 = spawn(worker, 200);
    join(t1); join(t2);
    print(count);
    return 0;
}`

func TestTimeoutPreservesSingleHolderInvariant(t *testing.T) {
	// Even through forced preemptions, mutual exclusion holds whenever
	// both threads are actually inside the region: the increment below
	// stays exact because the forced release only happens while the
	// holder is parked on the condvar, and it reacquires before touching
	// g again.
	r := runWL(t, singleHolderSrc, wlTable(1), 5, 20_000)
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if string(r.Output) != "201\n" {
		t.Fatalf("count %q, want 201 (no lost updates through preemption)", r.Output)
	}
	if r.WLStats.Timeouts == 0 {
		t.Fatalf("expected timeouts in this scenario")
	}
}

func TestLockOrderCheck(t *testing.T) {
	// Acquiring a coarser-kind lock while holding a finer one violates
	// the discipline; CheckLockOrder turns it into a fault.
	src := `
int main(void) {
    wl_acquire(3, 0, ` + inf + `);
    wl_acquire(0, 1, ` + inf + `);
    wl_release(0, 1);
    wl_release(3, 0);
    return 0;
}`
	f := parser.MustParse("t.mc", src)
	info := types.MustCheck(f)
	p, err := Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	w := oskit.NewWorld(1)
	r := Run(p, Config{Inputs: LiveInputs{OS: w}, Seed: 1, WL: wlTable(2), CheckLockOrder: true})
	if r.Err == nil || !strings.Contains(r.Err.Error(), "order violation") {
		t.Fatalf("expected order violation, got %v", r.Err)
	}
}

func TestReleaseUnheldFaults(t *testing.T) {
	src := `
int main(void) {
    wl_release(3, 0);
    return 0;
}`
	r := runWL(t, src, wlTable(1), 1, 0)
	if r.Err == nil || !strings.Contains(r.Err.Error(), "not held") {
		t.Fatalf("expected release fault, got %v", r.Err)
	}
}

func TestUnknownLockFaults(t *testing.T) {
	src := `
int main(void) {
    wl_acquire(3, 7, ` + inf + `);
    return 0;
}`
	r := runWL(t, src, wlTable(1), 1, 0)
	if r.Err == nil || !strings.Contains(r.Err.Error(), "unknown weak-lock") {
		t.Fatalf("expected unknown-lock fault, got %v", r.Err)
	}
}
