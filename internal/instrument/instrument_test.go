package instrument

import (
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/oskit"
	"repro/internal/pointsto"
	"repro/internal/relay"
	"repro/internal/vm"
	"repro/internal/weaklock"
)

func report(t *testing.T, src string) *relay.Report {
	t.Helper()
	f := parser.MustParse("t.mc", src)
	info := types.MustCheck(f)
	pta := pointsto.Analyze(info)
	return relay.AnalyzeParallel(info, pta, callgraph.Build(info, pta), 1)
}

// reparse checks the emitted source is valid MiniC.
func reparse(t *testing.T, src string) *types.Info {
	t.Helper()
	f, err := parser.Parse("inst.mc", src)
	if err != nil {
		t.Fatalf("instrumented source does not parse: %v\n%s", err, src)
	}
	info, err := types.Check(f)
	if err != nil {
		t.Fatalf("instrumented source does not check: %v\n%s", err, src)
	}
	return info
}

// runInstrumented compiles and executes the instrumented source; the VM
// faults on unbalanced weak-lock usage ("release of weak-lock not held",
// "return while holding"), making this the real balance check.
func runInstrumented(t *testing.T, res *Result, seed uint64) *vm.Result {
	t.Helper()
	info := reparse(t, res.Source)
	prog, err := vm.Compile(info)
	if err != nil {
		t.Fatalf("compile instrumented: %v\n%s", err, res.Source)
	}
	w := oskit.NewWorld(1)
	r := vm.Run(prog, vm.Config{Inputs: vm.LiveInputs{OS: w}, Seed: seed, WL: res.Table})
	if r.Err != nil {
		t.Fatalf("instrumented run failed: %v\n%s", r.Err, res.Source)
	}
	return r
}

const racySrc = `
int g;
void worker(int n) {
    g = g + n;
}
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return 0;
}
`

func TestNaiveInstrumentsEveryRacyNode(t *testing.T) {
	rep := report(t, racySrc)
	res, err := Instrument(rep, nil, NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	reparse(t, res.Source)
	if res.Table.Len() == 0 {
		t.Fatalf("no locks created")
	}
	// Every racy node got a site.
	siteNodes := make(map[int64]bool)
	for _, s := range res.Sites {
		siteNodes[int64(s.Node)] = true
		if s.Kind != weaklock.KindInstr && s.Kind != weaklock.KindBB {
			t.Errorf("naive mode must not use %s granularity", s.Kind)
		}
	}
	for n := range rep.RacyNodes {
		if !siteNodes[int64(n)] {
			t.Errorf("racy node %d not instrumented", n)
		}
	}
	if !strings.Contains(res.Source, "wl_acquire(3") {
		t.Errorf("expected instruction-granularity acquires:\n%s", res.Source)
	}
}

func TestPairEndpointsShareLock(t *testing.T) {
	rep := report(t, racySrc)
	res, err := Instrument(rep, nil, NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	lockOf := make(map[int64]weaklock.ID)
	for _, s := range res.Sites {
		lockOf[int64(s.Node)] = s.Lock
	}
	for _, p := range rep.Pairs {
		la, oka := lockOf[int64(p.A.Node)]
		lb, okb := lockOf[int64(p.B.Node)]
		if !oka || !okb {
			t.Fatalf("pair endpoints missing sites")
		}
		if la != lb {
			t.Errorf("race pair endpoints have different locks: %d vs %d", la, lb)
		}
	}
}

func TestBBRegionsMerge(t *testing.T) {
	rep := report(t, `
int a;
int b;
void worker(int n) {
    a = n;
    int mid = n * 2;
    b = mid;
}
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return 0;
}
`)
	res, err := Instrument(rep, nil, Options{BBLocks: true})
	if err != nil {
		t.Fatal(err)
	}
	reparse(t, res.Source)
	// The three worker statements form one bb region: exactly one
	// bb acquire in worker (possibly multiple locks).
	body := extractFunc(res.Source, "worker")
	if got := strings.Count(body, "wl_acquire(2"); got < 1 {
		t.Errorf("expected bb acquires in worker:\n%s", body)
	}
	runInstrumented(t, res, 3)
}

func TestReturnReleasesLocks(t *testing.T) {
	rep := report(t, `
int g;
int worker_result;
int compute(int n) {
    if (n > 0) {
        g = n;
        return g + 1;
    }
    g = -n;
    return g;
}
void worker(int n) { worker_result = compute(n); }
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, -2);
    join(t1); join(t2);
    return 0;
}
`)
	res, err := Instrument(rep, nil, Options{BBLocks: true})
	if err != nil {
		t.Fatal(err)
	}
	reparse(t, res.Source)
	// A return whose expression is inside a guarded region is rewritten
	// through a temp so releases come after evaluation; the VM verifies
	// lock balance at runtime.
	if !strings.Contains(res.Source, "__wlr") {
		t.Errorf("expected return-value temp:\n%s", res.Source)
	}
	for seed := uint64(0); seed < 3; seed++ {
		runInstrumented(t, res, seed)
	}
}

func TestLoopHeaderAccessWrapsLoop(t *testing.T) {
	rep := report(t, `
int limit;
int sink;
void worker(int n) {
    int s = 0;
    for (int i = 0; i < limit; i++) { s += i; }
    sink = s;
}
void setter(int n) { limit = n; }
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(setter, 50);
    join(t1); join(t2);
    return 0;
}
`)
	res, err := Instrument(rep, nil, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 3; seed++ {
		runInstrumented(t, res, seed)
	}
}

func TestStaticCountsReported(t *testing.T) {
	rep := report(t, racySrc)
	res, err := Instrument(rep, nil, NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.StaticCounts {
		total += c
	}
	if total == 0 {
		t.Errorf("no static sites counted")
	}
}

func TestRangedLoopLockEmitsBounds(t *testing.T) {
	rep := report(t, `
int arr[128];
void worker(int base) {
    for (int i = 0; i < 64; i++) {
        arr[base + i] = i;
    }
}
int main(void) {
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 64);
    join(t1); join(t2);
    return 0;
}
`)
	res, err := Instrument(rep, nil, Options{LoopLocks: true, BBLocks: true, LoopBodyThreshold: 14})
	if err != nil {
		t.Fatal(err)
	}
	reparse(t, res.Source)
	if !strings.Contains(res.Source, "__wlb") {
		t.Errorf("expected a base-pointer temp for the ranged loop-lock:\n%s", res.Source)
	}
	if !strings.Contains(res.Source, "wl_acquire(1") {
		t.Errorf("expected a loop acquire:\n%s", res.Source)
	}
	// The range expression references the worker's parameter.
	if !strings.Contains(res.Source, "base") {
		t.Errorf("range should be symbolic in base:\n%s", res.Source)
	}
}

// extractFunc pulls one function body out of printed source (crudely, for
// assertions).
func extractFunc(src, name string) string {
	i := strings.Index(src, name+"(")
	if i < 0 {
		return ""
	}
	j := strings.Index(src[i:], "{")
	depth := 0
	for k := i + j; k < len(src); k++ {
		switch src[k] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return src[i : k+1]
			}
		}
	}
	return src[i:]
}

func TestOptionsForRejectsUnknown(t *testing.T) {
	for _, name := range []string{"instr", "instr+func", "instr+loop", "all"} {
		if _, ok := OptionsFor(name); !ok {
			t.Errorf("OptionsFor(%q) rejected a known config", name)
		}
	}
	if opts, _ := OptionsFor("all"); opts != AllOptions() {
		t.Errorf("OptionsFor(all) = %+v, want AllOptions", opts)
	}
	// "+mhp" selects a race report, not options; callers strip it.
	for _, name := range []string{"bogus", "", "all+mhp", "instr+mhp", "naive"} {
		if _, ok := OptionsFor(name); ok {
			t.Errorf("OptionsFor(%q) accepted an unknown config", name)
		}
	}
}
