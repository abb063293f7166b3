// Racedebug: use deterministic replay to pin down an atomicity violation —
// the debugging workflow that motivates the paper (§1: "lack of
// determinism significantly impairs a programmer's ability to reason about
// an execution").
//
//	go run ./examples/racedebug
//
// A bank transfers money between two accounts with a read-modify-write
// that is not atomic. Under most schedules the books balance; under some
// they do not. Natively the bad run is unreproducible — every re-run may
// behave differently. With Chimera, the *first* failing run is recorded,
// and every replay reproduces it exactly, including the corrupted final
// balances, so the bug can be chased with a debugger.
package main

import (
	"fmt"
	"log"

	chimera "repro"
)

const src = `
int balance0;
int balance1;

void transfer_worker(int n) {
    for (int i = 0; i < n; i++) {
        // BUG: the two-account update is not atomic.
        int b0 = balance0;
        int b1 = balance1;
        balance0 = b0 - 1;
        balance1 = b1 + 1;
    }
}

int main(void) {
    balance0 = 5000;
    balance1 = 5000;
    int t1 = spawn(transfer_worker, 1500);
    int t2 = spawn(transfer_worker, 1500);
    join(t1);
    join(t2);
    print(balance0);
    print(balance1);
    print(balance0 + balance1);
    return 0;
}
`

func main() {
	prog, err := chimera.Load("bank.mc", src)
	if err != nil {
		log.Fatal(err)
	}
	inst, err := prog.Instrument(nil, chimera.NaiveOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Hunt for a failing run by recording executions under different
	// schedule seeds until the invariant (total == 10000) breaks.
	fmt.Println("recording runs until the atomicity violation manifests...")
	for seed := uint64(0); seed < 64; seed++ {
		recRes, recLog, _ := inst.RecordTo(chimera.RunConfig{
			World: chimera.NewWorld(1), Seed: seed, Table: inst.Table}, nil)
		if recRes.Err != nil {
			log.Fatal(recRes.Err)
		}
		total := lastNumber(recRes.Output)
		if total == 10000 {
			continue // books balanced; keep hunting
		}
		// A racy interleaving was captured: the log now pins it down.
		fmt.Printf("  seed %d: total = %d (violation!)\n", seed, total)
		fmt.Printf("  recorded %d order records — replaying 3 times:\n", recLog.OrderCount())
		for i := 0; i < 3; i++ {
			repSeed := uint64(1000 + i*7777)
			repRes, err := inst.Replay(recLog, chimera.RunConfig{
				World: chimera.NewWorld(1), Seed: repSeed, Table: inst.Table})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("    replay with seed %d: total = %d, identical = %v\n",
				repSeed, lastNumber(repRes.Output), repRes.Hash64() == recRes.Hash64())
			if repRes.Hash64() != recRes.Hash64() {
				log.Fatal("replay diverged — determinism broken")
			}
		}
		fmt.Println("the buggy interleaving reproduces exactly on every replay ✓")
		return
	}
	fmt.Println("no violation manifested in 64 seeds (try more)")
}

// lastNumber parses the final printed integer.
func lastNumber(out []byte) int {
	lines := split(out)
	if len(lines) == 0 {
		return 0
	}
	n := 0
	neg := false
	for _, c := range lines[len(lines)-1] {
		if c == '-' {
			neg = true
			continue
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		return -n
	}
	return n
}

func split(out []byte) []string {
	var lines []string
	cur := ""
	for _, b := range out {
		if b == '\n' {
			if cur != "" {
				lines = append(lines, cur)
			}
			cur = ""
			continue
		}
		cur += string(b)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
