package vm

import (
	"strings"
	"testing"

	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/oskit"
)

func compileSrc(t *testing.T, src string) *Program {
	t.Helper()
	f := parser.MustParse("t.mc", src)
	info := types.MustCheck(f)
	p, err := Compile(info)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func runSrc(t *testing.T, src string, seed uint64) *Result {
	t.Helper()
	p := compileSrc(t, src)
	w := oskit.NewWorld(1)
	r := Run(p, Config{Inputs: LiveInputs{OS: w}, Seed: seed})
	if r.Err != nil {
		t.Fatalf("run error: %v\noutput:\n%s", r.Err, r.Output)
	}
	return r
}

func runErr(t *testing.T, src string, wantSub string) {
	t.Helper()
	runErrWith(t, src, Config{}, wantSub)
}

// runErrWith is runErr under cfg, with Inputs and Seed filled in.
func runErrWith(t *testing.T, src string, cfg Config, wantSub string) {
	t.Helper()
	p := compileSrc(t, src)
	cfg.Inputs = LiveInputs{OS: oskit.NewWorld(1)}
	cfg.Seed = 1
	r := Run(p, cfg)
	if r.Err == nil {
		t.Fatalf("expected error containing %q, got none (output %q)", wantSub, r.Output)
	}
	if !strings.Contains(r.Err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", r.Err, wantSub)
	}
}

func TestArithmetic(t *testing.T) {
	r := runSrc(t, `
int main(void) {
    print(2 + 3 * 4);
    print((2 + 3) * 4);
    print(17 / 5);
    print(17 % 5);
    print(-7 / 2);
    print(1 << 10);
    print(1024 >> 3);
    print(0xff & 0x0f);
    print(0xf0 | 0x0f);
    print(0xff ^ 0x0f);
    print(5 < 3);
    print(3 <= 3);
    print(4 > 3);
    print(!0);
    print(!42);
    print(-(5));
    return 0;
}`, 1)
	want := "14\n20\n3\n2\n-3\n1024\n128\n15\n255\n240\n0\n1\n1\n1\n0\n-5\n"
	if string(r.Output) != want {
		t.Errorf("output:\n%s\nwant:\n%s", r.Output, want)
	}
}

func TestShortCircuit(t *testing.T) {
	r := runSrc(t, `
int g = 0;
int bump(void) { g++; return 1; }
int main(void) {
    int a = 0 && bump();
    print(a); print(g);
    a = 1 || bump();
    print(a); print(g);
    a = 1 && bump();
    print(a); print(g);
    a = 0 || 0;
    print(a);
    return 0;
}`, 1)
	want := "0\n0\n1\n0\n1\n1\n0\n"
	if string(r.Output) != want {
		t.Errorf("output:\n%s\nwant:\n%s", r.Output, want)
	}
}

func TestControlFlow(t *testing.T) {
	r := runSrc(t, `
int main(void) {
    int s = 0;
    for (int i = 0; i < 10; i++) {
        if (i == 3) { continue; }
        if (i == 8) { break; }
        s += i;
    }
    print(s);
    int n = 0;
    while (n < 5) { n++; }
    print(n);
    int x = 7;
    print(x > 5 ? 100 : 200);
    return 0;
}`, 1)
	want := "25\n5\n100\n"
	if string(r.Output) != want {
		t.Errorf("output:\n%s\nwant:\n%s", r.Output, want)
	}
}

func TestPointersArraysStructs(t *testing.T) {
	r := runSrc(t, `
struct pair { int a; int b; };
struct pair gp;
int arr[10];
int mat[3][4];
int main(void) {
    for (int i = 0; i < 10; i++) { arr[i] = i * i; }
    print(arr[7]);
    int *p = &arr[2];
    print(*p);
    print(*(p + 3));
    p++;
    print(*p);
    gp.a = 11;
    gp.b = 22;
    struct pair *q = &gp;
    print(q->a + q->b);
    mat[2][3] = 99;
    print(mat[2][3]);
    int *flat = &mat[0][0];
    print(flat[2 * 4 + 3]);
    int local[4];
    local[0] = 5; local[1] = 6;
    print(local[0] + local[1]);
    print(sizeof(struct pair));
    return 0;
}`, 1)
	want := "49\n4\n25\n9\n33\n99\n99\n11\n2\n"
	if string(r.Output) != want {
		t.Errorf("output:\n%s\nwant:\n%s", r.Output, want)
	}
}

func TestMallocAndRecursion(t *testing.T) {
	r := runSrc(t, `
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main(void) {
    int *buf = malloc(8);
    for (int i = 0; i < 8; i++) { buf[i] = fib(i); }
    for (int i = 0; i < 8; i++) { print(buf[i]); }
    free(buf);
    return 0;
}`, 1)
	want := "0\n1\n1\n2\n3\n5\n8\n13\n"
	if string(r.Output) != want {
		t.Errorf("output:\n%s\nwant:\n%s", r.Output, want)
	}
}

func TestFunctionPointers(t *testing.T) {
	r := runSrc(t, `
int inc(int x) { return x + 1; }
int twice(int x) { return x * 2; }
int apply(int f, int x) { return f(x); }
int main(void) {
    print(apply(inc, 10));
    print(apply(twice, 10));
    int fp = inc;
    print(fp(5));
    return 0;
}`, 1)
	want := "11\n20\n6\n"
	if string(r.Output) != want {
		t.Errorf("output:\n%s\nwant:\n%s", r.Output, want)
	}
}

func TestStringsAndPrints(t *testing.T) {
	r := runSrc(t, `
int main(void) {
    prints("hello ");
    prints("world\n");
    int *s = "abc";
    print(s[0]);
    return 0;
}`, 1)
	want := "hello world\n97\n"
	if string(r.Output) != want {
		t.Errorf("output:\n%s\nwant:\n%s", r.Output, want)
	}
}

func TestGlobalInit(t *testing.T) {
	r := runSrc(t, `
int a = 5;
int b = 5 * 4 + 2;
int c = -3;
int *s = "xy";
int main(void) {
    print(a); print(b); print(c); print(s[1]);
    return 0;
}`, 1)
	want := "5\n22\n-3\n121\n"
	if string(r.Output) != want {
		t.Errorf("output:\n%s\nwant:\n%s", r.Output, want)
	}
}

func TestSpawnJoin(t *testing.T) {
	r := runSrc(t, `
int results[4];
void worker(int id) {
    int s = 0;
    for (int i = 0; i <= id * 10; i++) { s += i; }
    results[id] = s;
}
int main(void) {
    int tids[4];
    for (int i = 0; i < 4; i++) { tids[i] = spawn(worker, i); }
    for (int i = 0; i < 4; i++) { join(tids[i]); }
    for (int i = 0; i < 4; i++) { print(results[i]); }
    return 0;
}`, 7)
	want := "0\n55\n210\n465\n"
	if string(r.Output) != want {
		t.Errorf("output:\n%s\nwant:\n%s", r.Output, want)
	}
	if r.Threads != 5 {
		t.Errorf("threads = %d, want 5", r.Threads)
	}
}

func TestMutexCounter(t *testing.T) {
	// With the lock, the final count is exact regardless of seed.
	src := `
int m;
int count;
void worker(int n) {
    for (int i = 0; i < n; i++) {
        lock(&m);
        count = count + 1;
        unlock(&m);
    }
}
int main(void) {
    int t1 = spawn(worker, 500);
    int t2 = spawn(worker, 500);
    join(t1); join(t2);
    print(count);
    return 0;
}`
	for seed := uint64(0); seed < 4; seed++ {
		r := runSrc(t, src, seed)
		if string(r.Output) != "1000\n" {
			t.Errorf("seed %d: output %q, want 1000", seed, r.Output)
		}
		if r.Counters.SyncOps == 0 {
			t.Errorf("no sync ops counted")
		}
	}
}

func TestRacyCounterLosesUpdates(t *testing.T) {
	// Without the lock, some increments are lost under at least one seed —
	// the VM interleaves at instruction granularity.
	src := `
int count;
void worker(int n) {
    for (int i = 0; i < n; i++) {
        int tmp = count;
        count = tmp + 1;
    }
}
int main(void) {
    int t1 = spawn(worker, 2000);
    int t2 = spawn(worker, 2000);
    join(t1); join(t2);
    print(count);
    return 0;
}`
	lost := false
	for seed := uint64(0); seed < 8; seed++ {
		r := runSrc(t, src, seed)
		if string(r.Output) != "4000\n" {
			lost = true
		}
	}
	if !lost {
		t.Errorf("racy counter never lost an update across 8 seeds; interleaving too coarse")
	}
}

func TestBarrier(t *testing.T) {
	r := runSrc(t, `
int bar;
int phase1[3];
int sum;
void worker(int id) {
    phase1[id] = id + 1;
    barrier_wait(&bar);
    // After the barrier every phase1 entry is visible.
    if (id == 0) {
        sum = phase1[0] + phase1[1] + phase1[2];
    }
    barrier_wait(&bar);
}
int main(void) {
    barrier_init(&bar, 3);
    int t0 = spawn(worker, 0);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t0); join(t1); join(t2);
    print(sum);
    return 0;
}`, 3)
	if string(r.Output) != "6\n" {
		t.Errorf("output %q, want 6", r.Output)
	}
}

func TestCondVar(t *testing.T) {
	r := runSrc(t, `
int m;
int cv;
int ready;
int data;
void producer(int x) {
    lock(&m);
    data = 42;
    ready = 1;
    cond_signal(&cv);
    unlock(&m);
}
int main(void) {
    int t1 = spawn(producer, 0);
    lock(&m);
    while (ready == 0) {
        cond_wait(&cv, &m);
    }
    print(data);
    unlock(&m);
    join(t1);
    return 0;
}`, 5)
	if string(r.Output) != "42\n" {
		t.Errorf("output %q, want 42", r.Output)
	}
}

func TestCondBroadcast(t *testing.T) {
	r := runSrc(t, `
int m;
int cv;
int go_flag;
int done;
void waiter(int id) {
    lock(&m);
    while (go_flag == 0) { cond_wait(&cv, &m); }
    done = done + 1;
    unlock(&m);
}
int main(void) {
    int t1 = spawn(waiter, 1);
    int t2 = spawn(waiter, 2);
    int t3 = spawn(waiter, 3);
    lock(&m);
    go_flag = 1;
    cond_broadcast(&cv);
    unlock(&m);
    join(t1); join(t2); join(t3);
    print(done);
    return 0;
}`, 9)
	if string(r.Output) != "3\n" {
		t.Errorf("output %q, want 3", r.Output)
	}
}

func TestFileIO(t *testing.T) {
	src := `
int main(void) {
    int fd = open(7);
    if (fd < 0) { print(-1); return 1; }
    int buf[16];
    int total = 0;
    int n = read(fd, buf, 16);
    while (n > 0) {
        for (int i = 0; i < n; i++) { total += buf[i]; }
        n = read(fd, buf, 16);
    }
    close(fd);
    print(total);
    return 0;
}`
	p := compileSrc(t, src)
	w := oskit.NewWorld(1)
	w.AddFile(7, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	r := Run(p, Config{Inputs: LiveInputs{OS: w}, Seed: 1})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if string(r.Output) != "171\n" {
		t.Errorf("output %q, want 171", r.Output)
	}
	if r.Counters.IOWait == 0 {
		t.Errorf("expected nonzero IOWait for file reads")
	}
}

func TestNetworkServer(t *testing.T) {
	src := `
int main(void) {
    int served = 0;
    int conn = accept(0);
    while (conn >= 0) {
        int buf[8];
        int n = recv(conn, buf, 8);
        int resp[8];
        for (int i = 0; i < n; i++) { resp[i] = buf[i] * 2; }
        send(conn, resp, n);
        served++;
        conn = accept(0);
    }
    print(served);
    return 0;
}`
	p := compileSrc(t, src)
	w := oskit.NewWorld(1)
	w.AddConn(1000, []int64{1, 2, 3})
	w.AddConn(5000, []int64{10, 20})
	r := Run(p, Config{Inputs: LiveInputs{OS: w}, Seed: 1})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if string(r.Output) != "2\n" {
		t.Errorf("output %q, want 2", r.Output)
	}
	conns := w.Conns()
	if len(conns[0].Sent) != 3 || conns[0].Sent[0] != 2 || conns[0].Sent[2] != 6 {
		t.Errorf("conn0 sent %v", conns[0].Sent)
	}
	if len(conns[1].Sent) != 2 || conns[1].Sent[1] != 40 {
		t.Errorf("conn1 sent %v", conns[1].Sent)
	}
}

func TestExitStopsEverything(t *testing.T) {
	r := runSrc(t, `
void worker(int x) {
    while (1) { }
}
int main(void) {
    spawn(worker, 0);
    print(1);
    exit(7);
    print(2);
    return 0;
}`, 1)
	if r.ExitCode != 7 {
		t.Errorf("exit code %d, want 7", r.ExitCode)
	}
	if string(r.Output) != "1\n" {
		t.Errorf("output %q", r.Output)
	}
}

func TestRuntimeErrors(t *testing.T) {
	runErr(t, `int main(void) { int *p = 0; return *p; }`, "invalid load")
	runErr(t, `int main(void) { int *p = 3; *p = 1; return 0; }`, "invalid store")
	// memTop = HeapBase + HeapWords + MaxThreads*StackWords = 16 + 64 +
	// 2*64 = 208 without globals (TestMemTopBoundary loads and stores at
	// 207).
	small := Config{HeapWords: 64, StackWords: 64, MaxThreads: 2}
	runErrWith(t, `int main(void) { int *p = 208; return *p; }`, small, "invalid load address 208")
	runErrWith(t, `int main(void) { int *p = 208; *p = 1; return 0; }`, small, "invalid store address 208")
	runErr(t, `int main(void) { int a = 1; int b = 0; return a / b; }`, "division by zero")
	runErr(t, `int m; int main(void) { unlock(&m); return 0; }`, "unlock of mutex")
	runErr(t, `int m; int main(void) { lock(&m); lock(&m); return 0; }`, "recursive lock")
	runErr(t, `int main(void) { check(1 == 2); return 0; }`, "check failed")
	runErr(t, `int b; int main(void) { barrier_wait(&b); return 0; }`, "uninitialized barrier")
	runErr(t, `int main(void) { join(99); return 0; }`, "invalid thread")
	runErr(t, `
int rec(int n) { return rec(n + 1); }
int main(void) { return rec(0); }`, "stack overflow")
}

func TestDeadlockDetected(t *testing.T) {
	runErr(t, `
int a; int b;
void w(int x) { lock(&b); lock(&a); unlock(&a); unlock(&b); }
int main(void) {
    int t1 = spawn(w, 0);
    lock(&a);
    // Give the other thread time to grab b by spinning a while.
    for (int i = 0; i < 10000; i++) { }
    lock(&b);
    unlock(&b); unlock(&a);
    join(t1);
    return 0;
}`, "deadlock")
}

func TestDeterminismSameSeed(t *testing.T) {
	src := `
int count;
void worker(int n) {
    for (int i = 0; i < n; i++) { int tmp = count; count = tmp + 1; }
}
int main(void) {
    int t1 = spawn(worker, 300);
    int t2 = spawn(worker, 300);
    join(t1); join(t2);
    print(count);
    return 0;
}`
	r1 := runSrc(t, src, 42)
	r2 := runSrc(t, src, 42)
	if r1.Hash64() != r2.Hash64() || r1.Makespan != r2.Makespan {
		t.Errorf("same seed diverged: %x vs %x", r1.Hash64(), r2.Hash64())
	}
}

func TestMakespanReflectsParallelism(t *testing.T) {
	// Two workers doing N work each in parallel should take well under the
	// serial time of 2N.
	para := `
int sink;
void worker(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i; }
    sink = s;
}
int main(void) {
    int t1 = spawn(worker, 20000);
    int t2 = spawn(worker, 20000);
    join(t1); join(t2);
    return 0;
}`
	serial := `
int sink;
void worker(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i; }
    sink = s;
}
int main(void) {
    int t1 = spawn(worker, 20000);
    join(t1);
    int t2 = spawn(worker, 20000);
    join(t2);
    return 0;
}`
	rp := runSrc(t, para, 1)
	rs := runSrc(t, serial, 1)
	if float64(rp.Makespan) > 0.7*float64(rs.Makespan) {
		t.Errorf("parallel makespan %d not < 0.7 * serial %d", rp.Makespan, rs.Makespan)
	}
}

func TestCountersPopulated(t *testing.T) {
	r := runSrc(t, `
int m;
int g;
int main(void) {
    for (int i = 0; i < 100; i++) { lock(&m); g++; unlock(&m); }
    print(g);
    return 0;
}`, 1)
	if r.Counters.MemOps == 0 || r.Counters.Instrs == 0 {
		t.Errorf("counters not populated: %+v", r.Counters)
	}
	if r.Counters.SyncOps != 200 {
		t.Errorf("SyncOps = %d, want 200", r.Counters.SyncOps)
	}
}
