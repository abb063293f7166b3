package mhp

import (
	"testing"

	"repro/internal/callgraph"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
	"repro/internal/relay"
)

func analyze(t *testing.T, src string) *relay.Report {
	t.Helper()
	f := parser.MustParse("t.mc", src)
	info := types.MustCheck(f)
	pta := pointsto.Analyze(info)
	return relay.AnalyzeParallel(info, pta, callgraph.Build(info, pta), 1)
}

func hasFnPair(r *relay.Report, a, b string) bool {
	if a > b {
		a, b = b, a
	}
	return len(r.FuncPairs[[2]string{a, b}]) > 0
}

func prunedReasons(r *relay.Report) map[string]int {
	m := make(map[string]int)
	for _, p := range r.Pruned {
		m[p.Reason]++
	}
	return m
}

// The water example (Fig. 2 of the paper): RELAY reports phase_a/phase_b
// as racy because it ignores barriers; the MHP pass proves the barrier
// separates them, while keeping the genuine same-phase race.
func TestBarrierPhasePrunesWaterPair(t *testing.T) {
	r := analyze(t, `
int bar;
int data;
void phase_a(int id) { data = id; }
void phase_b(int id) { data = data + id; }
void worker(int id) {
    phase_a(id);
    barrier_wait(&bar);
    phase_b(id);
}
int main(void) {
    barrier_init(&bar, 2);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return data;
}
`)
	if !hasFnPair(r, "phase_a", "phase_b") {
		t.Fatal("RELAY should report the cross-phase pair before refinement")
	}
	ref := Refine(r)
	if len(ref.Pairs) >= len(r.Pairs) {
		t.Fatalf("refinement should shrink the pair set: %d -> %d", len(r.Pairs), len(ref.Pairs))
	}
	if hasFnPair(ref, "phase_a", "phase_b") {
		t.Error("cross-phase pair should be pruned (barrier-phase)")
	}
	if !hasFnPair(ref, "phase_a", "phase_a") || !hasFnPair(ref, "phase_b", "phase_b") {
		t.Error("same-phase pairs are real races and must be kept")
	}
	reasons := prunedReasons(ref)
	if reasons["barrier-phase"] == 0 {
		t.Errorf("expected a barrier-phase prune, got %v", reasons)
	}
	if reasons["join-ordered"] == 0 {
		t.Errorf("main's post-join read should be join-ordered, got %v", reasons)
	}
	// The original report is untouched.
	if len(r.Pruned) != 0 || !hasFnPair(r, "phase_a", "phase_b") {
		t.Error("Refine must not mutate the input report")
	}
}

// Water's step loop: phases inside a barrier loop alternate segments; the
// cross-segment pair is pruned, the same-segment pairs stay, and code
// after the loop (poteng-style) is separated from all in-loop phases.
func TestBarrierLoopPhases(t *testing.T) {
	r := analyze(t, `
int bar;
int nsteps;
int g;
void predic(int id) { g = id; }
void interf(int id) { g = g + id; }
void poteng(int id) { g = g * 2; }
void worker(int id) {
    int steps = nsteps;
    for (int s = 0; s < steps; s++) {
        predic(id);
        barrier_wait(&bar);
        interf(id);
        barrier_wait(&bar);
    }
    poteng(id);
}
int main(void) {
    nsteps = 10;
    barrier_init(&bar, 2);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return g;
}
`)
	for _, pair := range [][2]string{{"predic", "interf"}, {"predic", "poteng"}, {"interf", "poteng"}} {
		if !hasFnPair(r, pair[0], pair[1]) {
			t.Fatalf("RELAY should report %v before refinement", pair)
		}
	}
	ref := Refine(r)
	for _, pair := range [][2]string{{"predic", "interf"}, {"predic", "poteng"}, {"interf", "poteng"}} {
		if hasFnPair(ref, pair[0], pair[1]) {
			t.Errorf("%v is barrier-separated and should be pruned", pair)
		}
	}
	for _, fn := range []string{"predic", "interf", "poteng"} {
		if !hasFnPair(ref, fn, fn) {
			t.Errorf("same-segment pair %s/%s must be kept", fn, fn)
		}
	}
}

// Pre-fork initialization and post-join reads on the main thread are
// ordered against the workers' fork/join window, including the loop-spawn
// / loop-join shape used by the scientific benchmarks.
func TestForkJoinWindowOnMainTimeline(t *testing.T) {
	r := analyze(t, `
int tids[4];
int nworkers;
int table[64];
void worker(int id) { table[id] = table[id] + 1; }
int main(void) {
    nworkers = 4;
    for (int i = 0; i < 64; i++) { table[i] = i; }
    for (int w = 0; w < nworkers; w++) { tids[w] = spawn(worker, w); }
    for (int w = 0; w < nworkers; w++) { join(tids[w]); }
    return table[0];
}
`)
	if !hasFnPair(r, "main", "worker") {
		t.Fatal("RELAY should pair main's init/read with the workers")
	}
	ref := Refine(r)
	if hasFnPair(ref, "main", "worker") {
		t.Error("main's accesses are pre-fork or join-ordered and should be pruned")
	}
	if !hasFnPair(ref, "worker", "worker") {
		t.Error("worker/worker is a real race and must be kept")
	}
	reasons := prunedReasons(ref)
	if reasons["pre-fork"] == 0 || reasons["join-ordered"] == 0 {
		t.Errorf("expected pre-fork and join-ordered prunes, got %v", reasons)
	}
}

// Two roots whose fork/join windows are disjoint never overlap.
func TestDisjointWindowsPruned(t *testing.T) {
	r := analyze(t, `
int g;
void w1(int id) { g = g + 1; }
void w2(int id) { g = g * 2; }
int main(void) {
    int a = spawn(w1, 1);
    join(a);
    int b = spawn(w2, 2);
    join(b);
    return g;
}
`)
	if len(r.Pairs) == 0 {
		t.Fatal("RELAY should report pairs before refinement")
	}
	ref := Refine(r)
	if len(ref.Pairs) != 0 {
		t.Errorf("all pairs are fork/join ordered; kept %d", len(ref.Pairs))
	}
}

// Negative: a handle whose address escapes yields no join-all proof, so
// main's post-"join" access is kept.
func TestEscapingHandleKept(t *testing.T) {
	r := analyze(t, `
int g;
void taker(int *p) { }
void worker(int id) { g = id; }
int main(void) {
    int t = spawn(worker, 1);
    taker(&t);
    join(t);
    g = 5;
    return g;
}
`)
	ref := Refine(r)
	if !hasFnPair(ref, "main", "worker") {
		t.Error("escaping handle: join is unproven, main/worker must be kept")
	}
}

// Negative: a conditional join proves nothing.
func TestConditionalJoinKept(t *testing.T) {
	r := analyze(t, `
int g;
int flag;
void worker(int id) { g = id; }
int main(void) {
    int t = spawn(worker, 1);
    if (flag != 0) { join(t); }
    g = 5;
    return g;
}
`)
	ref := Refine(r)
	if !hasFnPair(ref, "main", "worker") {
		t.Error("conditional join proves nothing; main/worker must be kept")
	}
}

// Negative: a barrier waited on in only one of two concurrent roots
// orders nothing between them.
func TestBarrierInOneThreadKept(t *testing.T) {
	r := analyze(t, `
int bar;
int g;
void w1(int id) { barrier_wait(&bar); g = id; }
void w2(int id) { g = 7; }
int main(void) {
    barrier_init(&bar, 2);
    int a = spawn(w1, 1);
    int b = spawn(w2, 2);
    join(a); join(b);
    return g;
}
`)
	ref := Refine(r)
	if !hasFnPair(ref, "w1", "w2") {
		t.Error("concurrent roots with a one-sided barrier must stay paired")
	}
}

// Negative: a wait under a conditional breaks the uniform phase
// structure; the whole root keeps its pairs.
func TestConditionalWaitKept(t *testing.T) {
	r := analyze(t, `
int bar;
int data;
void phase_a(int id) { data = id; }
void phase_b(int id) { data = data + id; }
void worker(int id) {
    phase_a(id);
    if (id > 0) { barrier_wait(&bar); }
    phase_b(id);
}
int main(void) {
    barrier_init(&bar, 2);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return data;
}
`)
	ref := Refine(r)
	if !hasFnPair(ref, "phase_a", "phase_b") {
		t.Error("a conditional wait aligns nothing; cross-phase pair must be kept")
	}
}

// Negative: more spawned instances than the barrier count breaks phase
// alignment, so no barrier prune may fire.
func TestOverSubscribedBarrierKept(t *testing.T) {
	r := analyze(t, `
int bar;
int data;
void phase_a(int id) { data = id; }
void phase_b(int id) { data = data + id; }
void worker(int id) {
    phase_a(id);
    barrier_wait(&bar);
    phase_b(id);
}
int main(void) {
    barrier_init(&bar, 2);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    int t3 = spawn(worker, 3);
    join(t1); join(t2); join(t3);
    return data;
}
`)
	ref := Refine(r)
	if !hasFnPair(ref, "phase_a", "phase_b") {
		t.Error("three waiters on a two-slot barrier are not aligned; pair must be kept")
	}
}

// Regression: RELAY dedups a node pair across root combinations, keeping
// only the first (main-rooted) attribution. A helper written pre-fork by
// main but also called by two concurrent workers must keep its pair: the
// recorded (main, worker) combination is pre-fork, yet the worker×worker
// combination still races on the same nodes.
func TestSharedHelperAllRootCombinationsKept(t *testing.T) {
	r := analyze(t, `
int g;
void touch(void) { g = g + 1; }
void w1(int id) { touch(); }
void w2(int id) { touch(); }
int main(void) {
    touch();
    int a = spawn(w1, 1);
    int b = spawn(w2, 2);
    join(a); join(b);
    return g;
}
`)
	if !hasFnPair(r, "touch", "touch") {
		t.Fatal("RELAY should report the touch/touch pair before refinement")
	}
	ref := Refine(r)
	if !hasFnPair(ref, "touch", "touch") {
		t.Error("w1 and w2 run touch concurrently; the pair must be kept " +
			"even though the recorded main/w1 combination is pre-fork")
	}
}

// Positive control for the combination enumeration: with the two workers'
// fork/join windows disjoint, every root combination is discharged and
// the shared-helper pair is pruned.
func TestSharedHelperDisjointCombinationsPruned(t *testing.T) {
	r := analyze(t, `
int g;
void touch(void) { g = g + 1; }
void w1(int id) { touch(); }
void w2(int id) { touch(); }
int main(void) {
    touch();
    int a = spawn(w1, 1);
    join(a);
    int b = spawn(w2, 2);
    join(b);
    return g;
}
`)
	if !hasFnPair(r, "touch", "touch") {
		t.Fatal("RELAY should report the touch/touch pair before refinement")
	}
	ref := Refine(r)
	if hasFnPair(ref, "touch", "touch") {
		t.Error("every root combination is fork/join ordered; pair should be pruned")
	}
}

// Negative: a barrier waiter that is also called as a plain function
// executes extra waits the instance bound never counted, so episode
// alignment is unprovable and the cross-phase pair must be kept.
func TestCalledWaiterDisablesBarrier(t *testing.T) {
	r := analyze(t, `
int bar;
int data;
void phase_a(int id) { data = id; }
void phase_b(int id) { data = data + id; }
void worker(int id) {
    phase_a(id);
    barrier_wait(&bar);
    phase_b(id);
}
int main(void) {
    barrier_init(&bar, 2);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    worker(0);
    return data;
}
`)
	ref := Refine(r)
	if !hasFnPair(ref, "phase_a", "phase_b") {
		t.Error("a waiter also entered by a direct call breaks episode alignment; pair must be kept")
	}
}

// Negative: a copied barrier address could alias; the analysis must
// disable itself entirely.
func TestBarrierAddressEscapeDisables(t *testing.T) {
	r := analyze(t, `
int bar;
int data;
void phase_a(int id) { data = id; }
void phase_b(int id) { data = data + id; }
void wait_on(int *b) { barrier_wait(b); }
void worker(int id) {
    phase_a(id);
    wait_on(&bar);
    phase_b(id);
}
int main(void) {
    barrier_init(&bar, 2);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return data;
}
`)
	ref := Refine(r)
	if !hasFnPair(ref, "phase_a", "phase_b") {
		t.Error("a barrier waited through a pointer is not provable; pair must be kept")
	}
}
