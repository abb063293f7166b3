package core

// End-to-end soak test: randomly generated racy multithreaded programs go
// through the full pipeline — RELAY, instrumentation, recording, replay
// under different seeds, and the dynamic race checker. Every generated
// program must (a) replay bit-identically and (b) be dynamically race-free
// after transformation. This is the reproduction's strongest correctness
// net: it exercises the interaction of the static analyses, the rewriter,
// the weak-lock runtime and the logs on program shapes nobody hand-picked.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/instrument"
	"repro/internal/oskit"
)

// genProgram builds a random but well-formed multithreaded MiniC program:
// a few shared globals and arrays, 2-3 worker functions built from a
// statement grammar (shared reads/writes, partitioned array loops, locked
// sections, optional barrier phases), and a main that spawns a mix of
// workers and prints the shared state.
func genProgram(r *rand.Rand) string {
	nGlobals := 2 + r.Intn(3)
	nWorkers := 2 + r.Intn(2)
	useBarrier := r.Intn(2) == 0
	nThreads := 2 + r.Intn(3) // spawned threads

	var sb strings.Builder
	for i := 0; i < nGlobals; i++ {
		fmt.Fprintf(&sb, "int g%d;\n", i)
	}
	sb.WriteString("int shared_arr[64];\nint mtx;\nint bar;\n")

	gvar := func() string { return fmt.Sprintf("g%d", r.Intn(nGlobals)) }

	var stmt func(depth int) string
	stmt = func(depth int) string {
		switch r.Intn(8) {
		case 0:
			return fmt.Sprintf("%s = %s + %d;", gvar(), gvar(), r.Intn(10))
		case 1:
			return fmt.Sprintf("shared_arr[(id * 7 + %d) & 63] = %s;", r.Intn(64), gvar())
		case 2:
			// Partitioned loop: the loop-lock showcase.
			return fmt.Sprintf(`for (int i = 0; i < 16; i++) {
        shared_arr[(id & 3) * 16 + i] = i + %d;
    }`, r.Intn(5))
		case 3:
			return fmt.Sprintf(`lock(&mtx);
    %s = %s + 1;
    unlock(&mtx);`, gvar(), gvar())
		case 4:
			return fmt.Sprintf("int t%d = %s * 2;\n    %s = t%d;", depth, gvar(), gvar(), depth)
		case 5:
			return fmt.Sprintf(`if (%s > %d) {
        %s = %d;
    }`, gvar(), r.Intn(50), gvar(), r.Intn(20))
		case 6:
			return fmt.Sprintf(`for (int k = 0; k < %d; k++) {
        %s = %s + shared_arr[k & 63];
    }`, 4+r.Intn(12), gvar(), gvar())
		default:
			return fmt.Sprintf("%s = shared_arr[%d] + %s;", gvar(), r.Intn(64), gvar())
		}
	}

	for w := 0; w < nWorkers; w++ {
		fmt.Fprintf(&sb, "\nvoid worker%d(int id) {\n", w)
		n := 2 + r.Intn(4)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "    %s\n", stmt(i))
		}
		if useBarrier {
			sb.WriteString("    barrier_wait(&bar);\n")
			fmt.Fprintf(&sb, "    %s\n", stmt(9))
		}
		sb.WriteString("}\n")
	}

	sb.WriteString("\nint main(void) {\n")
	if useBarrier {
		fmt.Fprintf(&sb, "    barrier_init(&bar, %d);\n", nThreads)
	}
	fmt.Fprintf(&sb, "    int tids[%d];\n", nThreads)
	for i := 0; i < nThreads; i++ {
		fmt.Fprintf(&sb, "    tids[%d] = spawn(worker%d, %d);\n", i, r.Intn(nWorkers), i)
	}
	for i := 0; i < nThreads; i++ {
		fmt.Fprintf(&sb, "    join(tids[%d]);\n", i)
	}
	for i := 0; i < nGlobals; i++ {
		fmt.Fprintf(&sb, "    print(g%d);\n", i)
	}
	sb.WriteString("    print(shared_arr[5]);\n")
	sb.WriteString("    return 0;\n}\n")
	return sb.String()
}

func TestSoakRandomPrograms(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	r := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < trials; trial++ {
		src := genProgram(r)
		prog, err := Load(fmt.Sprintf("soak%d.mc", trial), src)
		if err != nil {
			t.Fatalf("trial %d load: %v\n%s", trial, err, src)
		}
		// Alternate between naive and all-opts instrumentation.
		opts := instrument.NaiveOptions()
		if trial%2 == 1 {
			opts = instrument.AllOptions()
		}
		profiled := prog.ProfileNonConcurrency(
			func(run int) *oskit.World { return oskit.NewWorld(uint64(run)) }, 3, uint64(trial))
		ip, err := prog.Instrument(profiled, opts)
		if err != nil {
			t.Fatalf("trial %d instrument: %v\n%s", trial, err, src)
		}

		// Record and replay under two unrelated seeds.
		recSeed := uint64(trial*31 + 5)
		rec, log, _ := ip.RecordTo(RunConfig{World: oskit.NewWorld(1), Seed: recSeed, Table: ip.Table}, nil)
		if rec.Err != nil {
			t.Fatalf("trial %d record: %v\noriginal:\n%s\ninstrumented:\n%s",
				trial, rec.Err, src, ip.Prog.Source)
		}
		if rec.WLStats.Timeouts != 0 {
			t.Errorf("trial %d: %d weak-lock timeouts during record", trial, rec.WLStats.Timeouts)
		}
		for _, repSeed := range []uint64{recSeed + 1000, 999999 - uint64(trial)} {
			rep, err := ip.Replay(log, RunConfig{World: oskit.NewWorld(1), Seed: repSeed, Table: ip.Table})
			if err != nil {
				t.Fatalf("trial %d replay(seed %d): %v\ninstrumented:\n%s",
					trial, repSeed, err, ip.Prog.Source)
			}
			if rep.Hash64() != rec.Hash64() {
				t.Fatalf("trial %d replay(seed %d) diverged:\nrecorded %q\nreplayed %q\nsource:\n%s",
					trial, repSeed, rec.Output, rep.Output, src)
			}
		}

		// The transformed program is race-free under the extended sync set.
		races, res := CheckDynamicRaces(ip.Prog, ip.Table,
			RunConfig{World: oskit.NewWorld(1), Seed: recSeed + 7, Table: ip.Table})
		if res.Err != nil {
			t.Fatalf("trial %d check run: %v", trial, res.Err)
		}
		if len(races) != 0 {
			t.Fatalf("trial %d: instrumented program has a race: %v\noriginal:\n%s\ninstrumented:\n%s",
				trial, races[0], src, ip.Prog.Source)
		}
	}
}

// TestSoakDeterministicExecution runs a slice of the generated programs
// under the deterministic-execution arbiter across seeds.
func TestSoakDeterministicExecution(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	r := rand.New(rand.NewSource(424242))
	for trial := 0; trial < trials; trial++ {
		src := genProgram(r)
		prog, err := Load(fmt.Sprintf("dsoak%d.mc", trial), src)
		if err != nil {
			t.Fatalf("trial %d load: %v\n%s", trial, err, src)
		}
		ip, err := prog.Instrument(nil, instrument.NaiveOptions())
		if err != nil {
			t.Fatalf("trial %d instrument: %v", trial, err)
		}
		var want uint64
		for seed := uint64(0); seed < 4; seed++ {
			res := ip.RunDeterministic(RunConfig{World: oskit.NewWorld(1), Seed: seed * 917})
			if res.Err != nil {
				t.Fatalf("trial %d det seed %d: %v\n%s", trial, seed, res.Err, ip.Prog.Source)
			}
			if seed == 0 {
				want = res.Hash64()
			} else if res.Hash64() != want {
				t.Fatalf("trial %d: deterministic execution diverged at seed %d\n%s",
					trial, seed, src)
			}
		}
	}
}
