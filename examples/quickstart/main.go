// Quickstart: the whole Chimera pipeline on a classically racy program.
//
//	go run ./examples/quickstart
//
// A counter is incremented by two threads without a lock. Natively,
// different schedule seeds lose different numbers of updates — the program
// is not reproducible. Chimera transforms it to be data-race-free under
// weak-locks, records one execution, and replays it bit-identically under
// a completely different schedule seed.
package main

import (
	"fmt"
	"log"

	chimera "repro"
)

const src = `
int count;
void worker(int n) {
    for (int i = 0; i < n; i++) {
        int tmp = count;
        count = tmp + 1;
    }
}
int main(void) {
    int t1 = spawn(worker, 1000);
    int t2 = spawn(worker, 1000);
    join(t1);
    join(t2);
    print(count);
    return 0;
}
`

func main() {
	prog, err := chimera.Load("counter.mc", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RELAY found %d potential race pairs\n", len(prog.Races.Pairs))

	// 1. The native program is not reproducible: sweep schedule seeds.
	fmt.Println("\nnative runs (racy — results vary with the schedule):")
	for seed := uint64(0); seed < 4; seed++ {
		r := prog.RunNative(chimera.RunConfig{World: chimera.NewWorld(1), Seed: seed})
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("  seed %d -> count = %s", seed, r.Output)
	}

	// 2. Transform: every racy pair guarded by a weak-lock.
	inst, err := prog.Instrument(nil, chimera.NaiveOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninstrumented with %d weak-locks\n", inst.Table.Len())

	// 3. The transformed program is dynamically race-free.
	races, r := chimera.CheckDynamicRaces(inst.Prog, inst.Table,
		chimera.RunConfig{World: chimera.NewWorld(1), Seed: 5, Table: inst.Table})
	if r.Err != nil {
		log.Fatal(r.Err)
	}
	fmt.Printf("dynamic races under the extended sync set: %d\n", len(races))

	// 4. Record once, replay under a very different schedule.
	recRes, recLog, _ := inst.RecordTo(chimera.RunConfig{
		World: chimera.NewWorld(1), Seed: 42, Table: inst.Table}, nil)
	if recRes.Err != nil {
		log.Fatal(recRes.Err)
	}
	fmt.Printf("\nrecorded: count = %s", recRes.Output)
	fmt.Printf("order log: %d records, input log: %d records\n",
		recLog.OrderCount(), recLog.InputCount())

	repRes, err := inst.Replay(recLog, chimera.RunConfig{
		World: chimera.NewWorld(1), Seed: 987654321, Table: inst.Table})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed: count = %s", repRes.Output)
	if recRes.Hash64() == repRes.Hash64() {
		fmt.Println("replay is bit-identical to the recording ✓")
	} else {
		log.Fatal("replay diverged!")
	}
}
