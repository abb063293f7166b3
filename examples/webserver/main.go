// Webserver: record and replay a multithreaded server under load — the
// paper's apache scenario, including the famous memset false race.
//
//	go run ./examples/webserver
//
// A pool of workers serves requests from a simulated network. Responses
// are built in per-worker buffers cleared by my_memset; RELAY flags the
// memset store as racing with itself (it cannot see that the buffer slices
// are disjoint), and the symbolic-bounds loop-lock keeps the workers
// parallel while still recording enough ordering for deterministic replay.
// Recording overhead hides almost entirely under network waits.
package main

import (
	"fmt"
	"log"

	chimera "repro"
	"repro/internal/bench"
	"repro/internal/weaklock"
)

func main() {
	b := bench.Apache()
	prog, err := chimera.Load(b.Name, b.FullSource())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("apache-like server: %d LOC, %d potential race pairs\n",
		b.LOC(), len(prog.Races.Pairs))

	// Profile with small request streams, then instrument with all
	// optimizations.
	conc := prog.ProfileNonConcurrency(b.ProfileWorld, b.ProfileRuns, 77)
	fmt.Printf("profiled %d runs: %d concurrent function pairs\n",
		conc.Runs(), conc.PairCount())

	inst, err := prog.Instrument(conc, chimera.AllOptions())
	if err != nil {
		log.Fatal(err)
	}
	counts := inst.Report.StaticCounts
	fmt.Printf("instrumentation sites: func=%d loop=%d bb=%d instr=%d (%d locks)\n",
		counts[weaklock.KindFunc], counts[weaklock.KindLoop],
		counts[weaklock.KindBB], counts[weaklock.KindInstr], inst.Table.Len())

	// Native vs recorded run on the evaluation workload.
	native := prog.RunNative(chimera.RunConfig{World: b.EvalWorld(4), Seed: 3})
	if native.Err != nil {
		log.Fatal(native.Err)
	}
	recRes, recLog, _ := inst.RecordTo(chimera.RunConfig{
		World: b.EvalWorld(4), Seed: 3, Table: inst.Table}, nil)
	if recRes.Err != nil {
		log.Fatal(recRes.Err)
	}
	fmt.Printf("\nnative makespan:   %d cycles\n", native.Makespan)
	fmt.Printf("recorded makespan: %d cycles (%.2fx — hidden under I/O waits)\n",
		recRes.Makespan, float64(recRes.Makespan)/float64(native.Makespan))
	fmt.Printf("server output: %s", recRes.Output)

	// Replay: inputs come from the log, so the network is not consulted
	// and replay typically beats native time.
	repRes, err := inst.Replay(recLog, chimera.RunConfig{
		World: b.EvalWorld(4), Seed: 999, Table: inst.Table})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed makespan: %d cycles (%.2fx of native)\n",
		repRes.Makespan, float64(repRes.Makespan)/float64(native.Makespan))
	if recRes.Hash64() != repRes.Hash64() {
		log.Fatal("replay diverged!")
	}
	fmt.Println("replay is bit-identical to the recording ✓")
}
