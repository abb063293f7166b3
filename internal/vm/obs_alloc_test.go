package vm

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/oskit"
)

// hotLoopProgram compiles a single-threaded program whose main loop emits
// a memory event per iteration — the VM's event hot path.
func hotLoopProgram(tb testing.TB, iters int) *Program {
	tb.Helper()
	src := fmt.Sprintf(`
int g;
int main(void) {
    for (int i = 0; i < %d; i++) {
        int tmp = g;
        g = tmp + 1;
    }
    print(g);
    return 0;
}`, iters)
	f := parser.MustParse("hot.mc", src)
	info := types.MustCheck(f)
	p, err := Compile(info)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// With no sinks registered the event path must be fully disabled: no
// event buffer, no per-event work that allocates. We check that by
// comparing whole-run allocation counts at N and 2N loop iterations —
// the fixed setup cost (machine, stacks, world) is identical, so any
// per-iteration allocation shows up as a difference.
func TestDisabledObservabilityAddsNoAllocs(t *testing.T) {
	short := hotLoopProgram(t, 2_000)
	long := hotLoopProgram(t, 4_000)
	runOnce := func(p *Program) {
		r := Run(p, Config{Inputs: LiveInputs{OS: oskit.NewWorld(1)}, Seed: 1})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// Warm up both programs so lazy globals don't skew the first sample.
	runOnce(short)
	runOnce(long)
	// A collection allocates runtime objects of its own. A run no longer
	// allocates enough to trigger one every time, so with the collector
	// on a cycle can land in one window and not the other.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := testing.AllocsPerRun(5, func() { runOnce(short) })
	b := testing.AllocsPerRun(5, func() { runOnce(long) })
	if a != b {
		t.Errorf("doubling the hot loop changed allocations: %v → %v (disabled observability must be alloc-free per event)", a, b)
	}
}

// Memory is backed by pages allocated on first write, so a run pays for
// the pages it touches, not for the whole address space (64 MiB at the
// defaults). One short run must stay far below that; an eager clear of
// the address space would not.
func TestShortRunAllocatesTouchedPagesOnly(t *testing.T) {
	p := hotLoopProgram(t, 1_000)
	cfg := Config{Inputs: LiveInputs{OS: oskit.NewWorld(1)}, Seed: 1}
	Run(p, cfg) // warm up lazy globals
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := Run(p, cfg)
	runtime.ReadMemStats(&after)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("one short run allocated %d bytes, want < 1 MiB", got)
	}
}

// BenchmarkEventHotLoopDisabled reports the allocation profile of the
// event hot loop with observability off; allocs/op must stay flat as the
// loop grows (see TestDisabledObservabilityAddsNoAllocs for the hard
// assertion).
func BenchmarkEventHotLoopDisabled(b *testing.B) {
	p := hotLoopProgram(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		r := Run(p, Config{Inputs: LiveInputs{OS: oskit.NewWorld(1)}, Seed: 1})
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		instrs += r.Counters.Instrs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkEventHotLoopCounting is the observing counterpart: one
// counting sink attached, so the batched event path is live.
func BenchmarkEventHotLoopCounting(b *testing.B) {
	p := hotLoopProgram(b, 10_000)
	var sink countingSink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Run(p, Config{
			Inputs: LiveInputs{OS: oskit.NewWorld(1)},
			Seed:   1,
			Sinks:  []EventSink{&sink},
		})
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

type countingSink struct{ n int64 }

func (s *countingSink) Drain(events []Event) { s.n += int64(len(events)) }
