package trace

import (
	"testing"

	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/oskit"
	"repro/internal/vm"
	"repro/internal/weaklock"
)

func runChecked(t *testing.T, src string, seed uint64) *EpochChecker {
	t.Helper()
	f := parser.MustParse("t.mc", src)
	info := types.MustCheck(f)
	p, err := vm.Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	chk := NewChecker(0)
	w := oskit.NewWorld(1)
	r := vm.Run(p, vm.Config{
		Inputs: vm.LiveInputs{OS: w}, Seed: seed,
		Sinks: []vm.EventSink{chk},
	})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	return chk
}

func TestDetectsUnprotectedRace(t *testing.T) {
	chk := runChecked(t, `
int g;
void worker(int n) { g = g + n; }
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return g;
}
`, 0)
	if chk.RaceCount() == 0 {
		t.Fatalf("missed the obvious write-write race")
	}
}

func TestMutexOrdersAccesses(t *testing.T) {
	chk := runChecked(t, `
int m;
int g;
void worker(int n) {
    for (int i = 0; i < 50; i++) {
        lock(&m);
        g = g + n;
        unlock(&m);
    }
}
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return 0;
}
`, 3)
	if chk.RaceCount() != 0 {
		t.Fatalf("false positive under mutex: %v", chk.Races()[0])
	}
}

func TestForkJoinOrders(t *testing.T) {
	chk := runChecked(t, `
int g;
void worker(int n) { g = n; }
int main(void) {
    g = 1;
    int t1 = spawn(worker, 2);
    join(t1);
    g = 3;
    int t2 = spawn(worker, 4);
    join(t2);
    return g;
}
`, 1)
	if chk.RaceCount() != 0 {
		t.Fatalf("fork/join must order accesses: %v", chk.Races()[0])
	}
}

func TestBarrierOrders(t *testing.T) {
	chk := runChecked(t, `
int bar;
int a;
int b;
void worker(int id) {
    if (id == 0) { a = 1; }
    barrier_wait(&bar);
    if (id == 1) { b = a; }
    barrier_wait(&bar);
    if (id == 0) { a = b; }
}
int main(void) {
    barrier_init(&bar, 2);
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 1);
    join(t1); join(t2);
    return 0;
}
`, 5)
	if chk.RaceCount() != 0 {
		t.Fatalf("barrier must order phase accesses: %v", chk.Races()[0])
	}
}

func TestCondVarOrders(t *testing.T) {
	chk := runChecked(t, `
int m;
int cv;
int ready;
int data;
void producer(int x) {
    data = 42;
    lock(&m);
    ready = 1;
    cond_signal(&cv);
    unlock(&m);
}
int main(void) {
    int t1 = spawn(producer, 0);
    lock(&m);
    while (ready == 0) { cond_wait(&cv, &m); }
    unlock(&m);
    print(data);
    join(t1);
    return 0;
}
`, 2)
	// data is written before the (release of the) lock and read after the
	// wait: ordered by the mutex + condvar.
	if chk.RaceCount() != 0 {
		t.Fatalf("condvar handoff must be ordered: %v", chk.Races()[0])
	}
}

func TestReadReadNotARace(t *testing.T) {
	chk := runChecked(t, `
int table[8];
int m;
int sum;
void worker(int id) {
    int s = 0;
    for (int i = 0; i < 8; i++) { s += table[i]; }
    lock(&m);
    sum += s;
    unlock(&m);
}
int main(void) {
    for (int i = 0; i < 8; i++) { table[i] = i; }
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return sum;
}
`, 7)
	if chk.RaceCount() != 0 {
		t.Fatalf("read-read sharing is not a race: %v", chk.Races()[0])
	}
}

func TestWeakLockOrders(t *testing.T) {
	// Weak-locks are synchronization for the checker: the same racy
	// counter under wl_acquire/wl_release must be race-free.
	src := `
int g;
void worker(int n) {
    for (int i = 0; i < 20; i++) {
        wl_acquire(3, 0, -4611686018427387904, 4611686018427387904);
        g = g + n;
        wl_release(3, 0);
    }
}
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return g;
}
`
	f := parser.MustParse("t.mc", src)
	info := types.MustCheck(f)
	p, err := vm.Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	tbl := weaklock.NewTable()
	tbl.Add(weaklock.KindInstr, "t", false)
	chk := NewChecker(0)
	w := oskit.NewWorld(1)
	r := vm.Run(p, vm.Config{
		Inputs: vm.LiveInputs{OS: w}, Seed: 4,
		Sinks: []vm.EventSink{chk}, WL: tbl,
	})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if chk.RaceCount() != 0 {
		t.Fatalf("weak-lock must order accesses: %v", chk.Races()[0])
	}
}
