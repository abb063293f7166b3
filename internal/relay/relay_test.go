package relay

import (
	"testing"
)

func analyze(t *testing.T, src string) *Report {
	t.Helper()
	return analyzeWith(t, src, 1)
}

// racyVar reports whether any race pair touches the named global.
func racyVar(t *testing.T, r *Report, name string) bool {
	t.Helper()
	g := r.Info.File.Global(name)
	if g == nil {
		t.Fatalf("no global %s", name)
	}
	obj := r.Info.Objects[g.ID()]
	oid, ok := r.PTA.VarObjID(obj)
	if !ok {
		return false
	}
	for _, p := range r.Pairs {
		for _, o := range p.A.Objs {
			if o == oid {
				return true
			}
		}
		for _, o := range p.B.Objs {
			if o == oid {
				return true
			}
		}
	}
	return false
}

func TestUnprotectedGlobalRaces(t *testing.T) {
	r := analyze(t, `
int counter;
void worker(int n) {
    for (int i = 0; i < n; i++) { counter = counter + 1; }
}
int main(void) {
    int t1 = spawn(worker, 10);
    int t2 = spawn(worker, 10);
    join(t1); join(t2);
    return counter;
}
`)
	if len(r.Pairs) == 0 {
		t.Fatal("no races reported for unprotected counter")
	}
	if !racyVar(t, r, "counter") {
		t.Errorf("counter should be racy")
	}
	if !r.RacyFuncs[r.Info.Funcs["worker"]] {
		t.Errorf("worker should be a racy function")
	}
}

func TestLockedGlobalClean(t *testing.T) {
	r := analyze(t, `
int m;
int counter;
void worker(int n) {
    for (int i = 0; i < n; i++) {
        lock(&m);
        counter = counter + 1;
        unlock(&m);
    }
}
int main(void) {
    int t1 = spawn(worker, 10);
    int t2 = spawn(worker, 10);
    join(t1); join(t2);
    return 0;
}
`)
	if racyVar(t, r, "counter") {
		t.Errorf("locked counter should not be racy; pairs: %d", len(r.Pairs))
	}
}

func TestPartiallyLockedRaces(t *testing.T) {
	// One thread locks, the other does not: still a race.
	r := analyze(t, `
int m;
int g;
void locked(int n) { lock(&m); g = n; unlock(&m); }
void unlocked(int n) { g = n + 1; }
int main(void) {
    int t1 = spawn(locked, 1);
    int t2 = spawn(unlocked, 2);
    join(t1); join(t2);
    return g;
}
`)
	if !racyVar(t, r, "g") {
		t.Errorf("g should be racy (one side unlocked)")
	}
}

func TestDifferentLocksRace(t *testing.T) {
	r := analyze(t, `
int m1;
int m2;
int g;
void w1(int n) { lock(&m1); g = n; unlock(&m1); }
void w2(int n) { lock(&m2); g = n; unlock(&m2); }
int main(void) {
    int t1 = spawn(w1, 1);
    int t2 = spawn(w2, 2);
    join(t1); join(t2);
    return g;
}
`)
	if !racyVar(t, r, "g") {
		t.Errorf("g guarded by different locks should be racy")
	}
}

func TestLockWrapperComposition(t *testing.T) {
	// Locks acquired in a wrapper function still guard the caller's
	// accesses (summary net-lock effect).
	r := analyze(t, `
int m;
int g;
void my_lock(void) { lock(&m); }
void my_unlock(void) { unlock(&m); }
void worker(int n) {
    my_lock();
    g = n;
    my_unlock();
}
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return 0;
}
`)
	if racyVar(t, r, "g") {
		t.Errorf("g guarded via wrapper should not be racy")
	}
}

func TestCalleeAccessInheritsCallerLock(t *testing.T) {
	r := analyze(t, `
int m;
int g;
void bump(int n) { g = g + n; }
void worker(int n) {
    lock(&m);
    bump(n);
    unlock(&m);
}
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return 0;
}
`)
	if racyVar(t, r, "g") {
		t.Errorf("callee access under caller's lock should not be racy")
	}
}

func TestParameterLockSubstitution(t *testing.T) {
	// The lock is passed by pointer; substitution must resolve it to the
	// same global mutex in both threads.
	r := analyze(t, `
int m;
int g;
void locked_store(int *mu, int v) {
    lock(mu);
    g = v;
    unlock(mu);
}
void worker(int n) { locked_store(&m, n); }
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return 0;
}
`)
	if racyVar(t, r, "g") {
		t.Errorf("parameter-substituted lock should protect g")
	}
}

func TestBarrierFalsePositive(t *testing.T) {
	// The paper's water example (Fig. 2): two phases separated by a
	// barrier never run concurrently, but RELAY ignores barriers and
	// reports the race. This false positive is required behavior.
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
	if !racyVar(t, r, "data") {
		t.Errorf("RELAY must report the barrier-separated access as racy (false positive by design)")
	}
	// Both functions should appear in some racy function pair.
	if !r.RacyFuncs[r.Info.Funcs["phase_a"]] || !r.RacyFuncs[r.Info.Funcs["phase_b"]] {
		t.Errorf("phase_a/phase_b should be racy functions")
	}
}

func TestInitThenSpawnFalsePositive(t *testing.T) {
	// Initialization code runs before any thread exists; RELAY ignores
	// fork-join order and still flags it (paper §4.1).
	r := analyze(t, `
int table[64];
void worker(int id) { table[id] = table[id] + 1; }
int main(void) {
    for (int i = 0; i < 64; i++) { table[i] = i; }
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return table[0];
}
`)
	if !racyVar(t, r, "table") {
		t.Errorf("init-vs-worker accesses should be flagged (fork/join ignored)")
	}
}

func TestDisjointIndicesFalsePositive(t *testing.T) {
	// The radix pattern (paper Fig. 4): threads touch disjoint array
	// slices, but index-insensitive points-to collapses the array.
	r := analyze(t, `
int rank[64];
void worker(int base) {
    for (int i = 0; i < 32; i++) { rank[base + i] = i; }
}
int main(void) {
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 32);
    join(t1); join(t2);
    return rank[0];
}
`)
	if !racyVar(t, r, "rank") {
		t.Errorf("disjoint-slice array accesses should be flagged (index-insensitive)")
	}
}

func TestNonEscapingLocalFiltered(t *testing.T) {
	r := analyze(t, `
void worker(int n) {
    int local[16];
    int *p = &local[0];
    for (int i = 0; i < 16; i++) { p[i] = i * n; }
}
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return 0;
}
`)
	if len(r.Pairs) != 0 {
		t.Errorf("non-escaping local buffer should be filtered, got %d pairs", len(r.Pairs))
	}
}

func TestEscapingLocalReported(t *testing.T) {
	r := analyze(t, `
int *shared;
void publisher(int n) {
    int leaked;
    shared = &leaked;
    leaked = n;
}
void reader(int n) {
    if (shared != 0) {
        int v = *shared;
        v = v + n;
    }
}
int main(void) {
    int t1 = spawn(publisher, 1);
    int t2 = spawn(reader, 2);
    join(t1); join(t2);
    return 0;
}
`)
	if len(r.Pairs) == 0 {
		t.Errorf("escaping local should be reported")
	}
}

func TestReadOnlySharingClean(t *testing.T) {
	r := analyze(t, `
int table[8];
int sum;
int m;
void worker(int id) {
    int s = 0;
    for (int i = 0; i < 8; i++) { s += table[i]; }
    lock(&m);
    sum += s;
    unlock(&m);
}
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return sum;
}
`)
	// main writes table? No — table is never written, so no write anywhere
	// except sum (locked). There must be no race on table.
	if racyVar(t, r, "table") {
		t.Errorf("read-only table should not race")
	}
}

func TestMainVsMainNotRacy(t *testing.T) {
	r := analyze(t, `
int g;
int main(void) {
    g = 1;
    g = g + 1;
    return g;
}
`)
	if len(r.Pairs) != 0 {
		t.Errorf("single-threaded program reported %d races", len(r.Pairs))
	}
}

func TestSpawnInLoopSelfRace(t *testing.T) {
	r := analyze(t, `
int g;
void worker(int n) { g = n; }
int main(void) {
    int tids[4];
    for (int i = 0; i < 4; i++) { tids[i] = spawn(worker, i); }
    for (int i = 0; i < 4; i++) { join(tids[i]); }
    return g;
}
`)
	if !racyVar(t, r, "g") {
		t.Errorf("worker spawned in a loop should race with itself")
	}
}

func TestStructFieldRaces(t *testing.T) {
	r := analyze(t, `
struct stats { int hits; int misses; };
struct stats gs;
void w1(int n) { gs.hits = gs.hits + n; }
void w2(int n) { gs.misses = gs.misses + n; }
int main(void) {
    int t1 = spawn(w1, 1);
    int t2 = spawn(w1, 2);
    int t3 = spawn(w2, 3);
    join(t1); join(t2); join(t3);
    return gs.hits;
}
`)
	// hits races with hits (two w1 instances); hits should NOT race with
	// misses (distinct fields).
	hitsRacesMisses := false
	for _, p := range r.Pairs {
		na := ""
		nb := ""
		if len(p.A.Objs) > 0 {
			na = r.PTA.Obj(p.A.Objs[0]).Name
		}
		if len(p.B.Objs) > 0 {
			nb = r.PTA.Obj(p.B.Objs[0]).Name
		}
		if (na == "stats.hits" && nb == "stats.misses") || (na == "stats.misses" && nb == "stats.hits") {
			hitsRacesMisses = true
		}
	}
	if hitsRacesMisses {
		t.Errorf("distinct fields should not race with each other")
	}
	if len(r.Pairs) == 0 {
		t.Errorf("expected races on gs.hits between w1 instances")
	}
}

func TestCondWaitKeepsLockset(t *testing.T) {
	r := analyze(t, `
int m;
int cv;
int ready;
void waiter(int n) {
    lock(&m);
    while (ready == 0) { cond_wait(&cv, &m); }
    ready = ready + n;
    unlock(&m);
}
void setter(int n) {
    lock(&m);
    ready = n;
    cond_signal(&cv);
    unlock(&m);
}
int main(void) {
    int t1 = spawn(waiter, 1);
    int t2 = spawn(setter, 2);
    join(t1); join(t2);
    return 0;
}
`)
	if racyVar(t, r, "ready") {
		t.Errorf("ready is always accessed under m; should not race")
	}
}

func TestSummariesExist(t *testing.T) {
	r := analyze(t, `
int g;
void leaf(int n) { g = n; }
void worker(int n) { leaf(n); }
int main(void) {
    int t = spawn(worker, 1);
    join(t);
    g = 2;
    return g;
}
`)
	ws := r.Summaries[r.Info.Funcs["worker"]]
	if ws == nil || ws.AccessCount() == 0 {
		t.Fatalf("worker summary missing or empty")
	}
	// worker's summary includes leaf's access to g.
	found := false
	for _, a := range ws.Accesses {
		if a.fn.Name == "leaf" && a.write {
			found = true
		}
	}
	if !found {
		t.Errorf("worker summary should include leaf's write to g")
	}
}

func TestUnresolvableUnlockClearsLockset(t *testing.T) {
	// unlock through an unanalyzable lvalue must conservatively drop all
	// held locks (a must-hold analysis may not overclaim).
	r := analyze(t, `
int m;
int locks[4];
int g;
void worker(int i) {
    lock(&m);
    unlock(&locks[i]);
    g = i;
    lock(&locks[i]);
    unlock(&m);
}
int main(void) {
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 1);
    join(t1); join(t2);
    return 0;
}
`)
	if !racyVar(t, r, "g") {
		t.Errorf("g must be racy: the unresolvable unlock may have released m")
	}
}

func TestStructFieldLockGuards(t *testing.T) {
	// A lock reached through a pointer parameter guards accesses through
	// the same parameter path (must-alias via substitution).
	r := analyze(t, `
struct obj { int lockword; int value; };
struct obj g;
void bump(struct obj *o, int n) {
    lock(&o->lockword);
    o->value = o->value + n;
    unlock(&o->lockword);
}
void worker(int n) { bump(&g, n); }
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return 0;
}
`)
	for _, p := range r.Pairs {
		na, nb := "", ""
		if len(p.A.Objs) > 0 {
			na = r.PTA.Obj(p.A.Objs[0]).Name
		}
		if len(p.B.Objs) > 0 {
			nb = r.PTA.Obj(p.B.Objs[0]).Name
		}
		if na == "obj.value" || nb == "obj.value" {
			t.Errorf("o->value is guarded by o->lockword; pair %s <-> %s", na, nb)
		}
	}
}

func TestRecursionSummaryConverges(t *testing.T) {
	r := analyze(t, `
int g;
int m;
void walk(int depth) {
    if (depth <= 0) { return; }
    lock(&m);
    g = g + depth;
    unlock(&m);
    walk(depth - 1);
}
int main(void) {
    int t1 = spawn(walk, 5);
    int t2 = spawn(walk, 5);
    join(t1); join(t2);
    return 0;
}
`)
	if racyVar(t, r, "g") {
		t.Errorf("recursive locked access should not be racy")
	}
}

func TestRacyPartnersQuery(t *testing.T) {
	r := analyze(t, `
int g;
void w1(int n) { g = n; }
void w2(int n) { g = n + 1; }
int main(void) {
    int t1 = spawn(w1, 1);
    int t2 = spawn(w2, 2);
    join(t1); join(t2);
    return 0;
}
`)
	if len(r.Pairs) == 0 {
		t.Fatal("no pairs")
	}
	p := r.Pairs[0]
	partners := r.RacyPartners(p.A.Node)
	found := false
	for _, n := range partners {
		if n == p.B.Node {
			found = true
		}
	}
	if !found {
		t.Errorf("RacyPartners(%d) = %v missing %d", p.A.Node, partners, p.B.Node)
	}
	if len(r.RacyPartners(-99)) != 0 {
		t.Errorf("unknown node should have no partners")
	}
}

func TestConditionalLockMeet(t *testing.T) {
	// A lock held on only one branch is not held after the join.
	r := analyze(t, `
int m;
int g;
void worker(int c) {
    if (c) {
        lock(&m);
    }
    g = c;
    if (c) {
        unlock(&m);
    }
}
int main(void) {
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 1);
    join(t1); join(t2);
    return 0;
}
`)
	if !racyVar(t, r, "g") {
		t.Errorf("g after a conditional lock must be racy (must-hold meet)")
	}
}
