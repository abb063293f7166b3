package chimera

// One benchmark per table and figure of the paper's evaluation (§7). Each
// regenerates the corresponding rows/series on the simulated testbed and
// prints them once, so `go test -bench=.` output doubles as the full
// reproduction record (see EXPERIMENTS.md for paper-vs-measured).

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/harness"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/weaklock"
)

var (
	suiteOnce sync.Once
	suiteVal  *harness.Suite
	suiteErr  error
)

// suite prepares all nine benchmarks once (analysis + profiling + four
// instrumentation configurations); preparation cost is excluded from every
// benchmark's timing.
func suite(b *testing.B) *harness.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = harness.NewSuite(harness.Default())
	})
	if suiteErr != nil {
		b.Fatalf("suite preparation failed: %v", suiteErr)
	}
	return suiteVal
}

var printOnce sync.Map

func printFirst(key, out string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(out)
	}
}

// BenchmarkTable1 regenerates the benchmark inventory (Table 1).
func BenchmarkTable1(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := s.Table1()
		if i == 0 {
			printFirst("table1", out)
		}
	}
}

// BenchmarkTable2 regenerates the record/replay measurements (Table 2):
// per-benchmark DRF logs, weak-lock logs by granularity, record and replay
// overheads, and compressed log sizes at 4 worker threads.
func BenchmarkTable2(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, out, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst("table2", out)
			for _, m := range ms {
				if !m.ReplayMatches {
					b.Fatalf("%s replay mismatch: %s", m.Bench, m.ReplayErr)
				}
				if m.Timeouts != 0 {
					b.Fatalf("%s had %d weak-lock timeouts", m.Bench, m.Timeouts)
				}
			}
		}
	}
}

// BenchmarkFigure5 regenerates the recording-overhead-per-optimization
// figure (instr / instr+func / instr+loop / all).
func BenchmarkFigure5(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, out, err := s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst("figure5", out)
			for _, r := range rows {
				if r.Values["all"] > r.Values["instr"]*1.2 {
					b.Logf("NOTE: %s all-opts (%.2f) not below naive (%.2f)",
						r.Bench, r.Values["all"], r.Values["instr"])
				}
			}
		}
	}
}

// BenchmarkFigure6 regenerates the instrumented-operation-proportion
// figure (weak-lock ops as a fraction of dynamic memory operations).
func BenchmarkFigure6(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst("figure6", out)
		}
	}
}

// BenchmarkFigure7 regenerates the overhead-source breakdown (logging vs
// contention per weak-lock granularity).
func BenchmarkFigure7(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst("figure7", out)
		}
	}
}

// BenchmarkFigure8 regenerates the scalability figure (2/4/8 workers).
func BenchmarkFigure8(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := s.Figure8(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst("figure8", out)
		}
	}
}

// BenchmarkProfileSensitivity regenerates the §7.3 profile-run study: the
// set of observed concurrent function pairs saturates after a few runs.
func BenchmarkProfileSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, out, err := harness.ProfileSensitivity(nil, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst("sens", out)
			for _, r := range rows {
				n := len(r.Pairs)
				if n >= 2 && r.Pairs[n-1] != r.Pairs[n-2] {
					b.Logf("NOTE: %s pairs still growing at run %d", r.Bench, n)
				}
			}
		}
	}
}

// BenchmarkAblationLoopBodyThreshold sweeps the §5.3 loop-body-threshold
// on radix: with threshold 0, imprecise loops fall back to basic-block
// locks inside the loop (cheap ops per iteration, parallel); with a large
// threshold every imprecise loop takes a serializing [-INF,+INF] loop-lock.
// The default sits between, trading per-iteration logging against
// serialization — exactly the balance §5.3 describes.
func BenchmarkAblationLoopBodyThreshold(b *testing.B) {
	bm := bench.ByName("radix")
	prog, err := core.Load(bm.Name, bm.FullSource())
	if err != nil {
		b.Fatal(err)
	}
	conc := prog.ProfileNonConcurrency(bm.ProfileWorld, bm.ProfileRuns, 10_000)
	native := prog.RunNative(core.RunConfig{World: bm.EvalWorld(4), Seed: 1234})
	if native.Err != nil {
		b.Fatal(native.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := "Ablation (loop-body-threshold, §5.3) on radix:\n"
		for _, thr := range []int{-1, 14, 100000} {
			opts := instrument.AllOptions()
			opts.LoopBodyThreshold = thr
			ip, err := prog.Instrument(conc, opts)
			if err != nil {
				b.Fatal(err)
			}
			res, _, _ := ip.RecordTo(core.RunConfig{
				World: bm.EvalWorld(4), Seed: 1234, Table: ip.Table}, nil)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			out += fmt.Sprintf("  threshold %6d: %.2fx record overhead (loop logs %d, bb logs %d, instr logs %d)\n",
				thr, float64(res.Makespan)/float64(native.Makespan),
				res.WLStats.Logs[weaklock.KindLoop], res.WLStats.Logs[weaklock.KindBB],
				res.WLStats.Logs[weaklock.KindInstr])
		}
		if i == 0 {
			printFirst("ablation", out)
		}
	}
}

// BenchmarkAblationCliqueSharing compares clique-shared function-locks
// (paper Fig. 3(b)) against one lock per racy pair (Fig. 3(a)) on pfscan,
// the function-lock-heavy benchmark.
func BenchmarkAblationCliqueSharing(b *testing.B) {
	bm := bench.ByName("pfscan")
	prog, err := core.Load(bm.Name, bm.FullSource())
	if err != nil {
		b.Fatal(err)
	}
	conc := prog.ProfileNonConcurrency(bm.ProfileWorld, bm.ProfileRuns, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := "Ablation (clique sharing, §4.2) on pfscan:\n"
		for _, perPair := range []bool{false, true} {
			opts := instrument.AllOptions()
			opts.PerPairFuncLocks = perPair
			ip, err := prog.Instrument(conc, opts)
			if err != nil {
				b.Fatal(err)
			}
			res, _, _ := ip.RecordTo(core.RunConfig{
				World: bm.EvalWorld(4), Seed: 1234, Table: ip.Table}, nil)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			name := "cliques (shared)"
			if perPair {
				name = "per-pair locks "
			}
			out += fmt.Sprintf("  %s: %d function locks, %d func-lock ops\n",
				name, ip.Table.CountByKind()[weaklock.KindFunc],
				res.WLStats.Ops(weaklock.KindFunc))
		}
		if i == 0 {
			printFirst("ablation-clique", out)
		}
	}
}
