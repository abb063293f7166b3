// Scientific: the radix-sort workload of the paper's Figure 4, showing the
// symbolic bounds analysis at work.
//
//	go run ./examples/scientific
//
// Each worker clears and fills its own region of a shared rank histogram.
// The clear loop's address range is derivable statically — the loop-lock
// protects exactly &rank[base] .. &rank[base+radix-1], so workers stay
// parallel. The count loop indexes rank with (key >> shift) & mask, which
// the bounds grammar cannot express, so it gets the paper's
// WEAK-LOCK(-INF, +INF). The example prints the instrumented source so
// both forms are visible, then verifies deterministic replay.
package main

import (
	"fmt"
	"log"
	"strings"

	chimera "repro"
	"repro/internal/bench"
	"repro/internal/weaklock"
)

func main() {
	b := bench.Radix()
	prog, err := chimera.Load(b.Name, b.FullSource())
	if err != nil {
		log.Fatal(err)
	}
	conc := prog.ProfileNonConcurrency(b.ProfileWorld, b.ProfileRuns, 5)
	inst, err := prog.Instrument(conc, chimera.AllOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Show the sort_worker body: ranged and infinite loop-locks side by
	// side (paper Fig. 4).
	src := inst.Prog.Source
	if i := strings.Index(src, "void sort_worker"); i >= 0 {
		if j := strings.Index(src[i:], "\n}"); j >= 0 {
			fmt.Println(src[i : i+j+2])
		}
	}

	// Report the per-site bound decisions.
	precise, inf := 0, 0
	for _, s := range inst.Report.Sites {
		if s.Kind != weaklock.KindLoop {
			continue
		}
		if s.Precise {
			precise++
		} else {
			inf++
		}
	}
	fmt.Printf("\nloop-lock sites: %d with precise symbolic bounds, %d with [-INF,+INF]\n",
		precise, inf)

	// Record with the sanity check enabled, replay under another seed.
	recRes, recLog, _ := inst.RecordTo(chimera.RunConfig{
		World: b.EvalWorld(4), Seed: 11, Table: inst.Table}, nil)
	if recRes.Err != nil {
		log.Fatal(recRes.Err)
	}
	fmt.Printf("sorted %s", recRes.Output)
	repRes, err := inst.Replay(recLog, chimera.RunConfig{
		World: b.EvalWorld(4), Seed: 2222, Table: inst.Table})
	if err != nil {
		log.Fatal(err)
	}
	if recRes.Hash64() != repRes.Hash64() {
		log.Fatal("replay diverged!")
	}
	fmt.Println("deterministic replay verified ✓")
}
