package relay

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/callgraph"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
)

// diamondSrc exercises shared helpers, recursion, locks and multiple
// thread roots across several condensation waves.
const diamondSrc = `
int counter;
int other;
int m;
int m2;

int leafA(int x) { lock(&m); counter = counter + x; unlock(&m); return x; }
int leafB(int x) { counter = counter + x; return x; }
int rec(int x) { if (x > 0) { return rec(x - 1) + leafB(x); } return 0; }
int midA(int x) { return leafA(x) + leafB(x); }
int midB(int x) { lock(&m2); other = other + rec(x); unlock(&m2); return x; }

void worker(int x) {
    midA(x);
    midB(x);
}

int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    midA(0);
    join(t1);
    join(t2);
    return counter + other;
}
`

func analyzeWith(t *testing.T, src string, workers int) *Report {
	t.Helper()
	f := parser.MustParse("t.mc", src)
	info := types.MustCheck(f)
	pta := pointsto.Analyze(info)
	cg := callgraph.Build(info, pta)
	return AnalyzeParallel(info, pta, cg, workers)
}

// The parallel scheduler must produce a byte-identical report no matter
// the worker count or scheduling.
func TestParallelMatchesSequential(t *testing.T) {
	want := analyzeWith(t, diamondSrc, 1).Render()
	if want == "" {
		t.Fatal("empty sequential render")
	}
	for _, workers := range []int{2, 4, 8} {
		for round := 0; round < 5; round++ {
			got := analyzeWith(t, diamondSrc, workers).Render()
			if got != want {
				t.Fatalf("workers=%d round=%d: parallel report differs\n--- sequential ---\n%s\n--- parallel ---\n%s",
					workers, round, want, got)
			}
		}
	}
}

// Benchmarks are the realistic workload: every one must analyze
// identically under parallel scheduling.
func TestParallelMatchesSequentialOnBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			want := analyzeWith(t, b.FullSource(), 1).Render()
			got := analyzeWith(t, b.FullSource(), 8).Render()
			if got != want {
				t.Errorf("%s: parallel report differs from sequential", b.Name)
			}
		})
	}
}

// TestParallelSummariesStress runs the parallel analysis of the largest
// benchmark repeatedly at several GOMAXPROCS settings. Run under -race in
// CI (with GOMAXPROCS ∈ {1,2,8} set externally as well), it is the
// concurrency soak for the wave worker pool.
func TestParallelSummariesStress(t *testing.T) {
	largest := bench.All()[0]
	for _, b := range bench.All() {
		if b.LOC() > largest.LOC() {
			largest = b
		}
	}
	src := largest.FullSource()
	want := analyzeWith(t, src, 1).Render()

	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := analyzeWith(t, src, 8).Render()
				if got != want {
					t.Errorf("GOMAXPROCS=%d: %s parallel report differs", procs, largest.Name)
				}
			}()
		}
		wg.Wait()
	}
}

// A mid-wave error must cancel outstanding higher-index work and surface
// the least-index error of the first faulty wave — the same error the
// sequential walk would hit first — on every run.
func TestMidWaveErrorCancellation(t *testing.T) {
	f := parser.MustParse("t.mc", diamondSrc)
	info := types.MustCheck(f)
	pta := pointsto.Analyze(info)
	cg := callgraph.Build(info, pta)

	waves := cg.Waves()
	// Pick the first wave above the leaves with at least two SCCs and
	// fault both; the lower-index fault must win deterministically.
	faultWave := -1
	for wi, wave := range waves {
		if wi > 0 && len(wave) >= 2 {
			faultWave = wi
			break
		}
	}
	if faultWave < 0 {
		t.Fatalf("test program has no multi-SCC wave above the leaves; waves: %v", waves)
	}
	lo, hi := waves[faultWave][0], waves[faultWave][1]
	waveOf := make(map[int]int)
	for wi, wave := range waves {
		for _, scc := range wave {
			waveOf[scc] = wi
		}
	}

	errLo := errors.New("fault-lo")
	errHi := errors.New("fault-hi")
	// run walks the SCCs marked in dirty with the fault hook installed and
	// returns the SCCs the hook saw, how many of them lay in waves after
	// the faulty one, and the walk's error.
	run := func(dirty []bool, workers int) (*sync.Map, int64, error) {
		rl := newAnalyzer(info, pta, cg)
		var ran sync.Map
		var laterWaveRuns atomic.Int64
		rl.sccFault = func(scc int) error {
			ran.Store(scc, true)
			if waveOf[scc] > faultWave {
				laterWaveRuns.Add(1)
			}
			switch scc {
			case lo:
				return errLo
			case hi:
				return errHi
			}
			return nil
		}
		err := rl.walk(dirty, workers)
		return &ran, laterWaveRuns.Load(), err
	}
	wantMsg := fmt.Sprintf("scc %d: %s", lo, errLo)

	for round := 0; round < 20; round++ {
		ran, laterWaveRuns, err := run(nil, 4)
		if !errors.Is(err, errLo) {
			t.Fatalf("round %d: got error %v, want the least-index fault %v", round, err, errLo)
		}
		if err.Error() != wantMsg {
			t.Fatalf("round %d: error text %q, want %q", round, err.Error(), wantMsg)
		}
		if laterWaveRuns != 0 {
			t.Fatalf("round %d: %d SCCs from waves after the faulty one ran; cancellation failed", round, laterWaveRuns)
		}
		if _, ok := ran.Load(lo); !ok {
			t.Fatalf("round %d: least-index faulty SCC never ran", round)
		}
	}

	// With a dirty mask — the incremental shape: every SCC below the
	// faulty wave reused, the rest recomputed — neither schedule may walk
	// a clean SCC, and both must surface the least-index dirty fault.
	dirty := make([]bool, len(cg.SCCs))
	var clean []int
	for scc := range dirty {
		dirty[scc] = waveOf[scc] >= faultWave
		if !dirty[scc] {
			clean = append(clean, scc)
		}
	}
	for _, workers := range []int{1, 4} {
		for round := 0; round < 20; round++ {
			ran, laterWaveRuns, err := run(dirty, workers)
			if err == nil || err.Error() != wantMsg {
				t.Fatalf("workers=%d round %d: got error %v, want %q", workers, round, err, wantMsg)
			}
			for _, scc := range clean {
				if _, ok := ran.Load(scc); ok {
					t.Fatalf("workers=%d round %d: clean SCC %d was walked", workers, round, scc)
				}
			}
			if workers > 1 && laterWaveRuns != 0 {
				t.Fatalf("workers=%d round %d: %d SCCs from waves after the faulty one ran", workers, round, laterWaveRuns)
			}
		}
	}
}
