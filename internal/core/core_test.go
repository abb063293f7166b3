package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/instrument"
	"repro/internal/oskit"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/weaklock"
)

// racyCounter: classic lost-update race, plus a read in main.
const racyCounter = `
int count;
void worker(int n) {
    for (int i = 0; i < n; i++) {
        int tmp = count;
        count = tmp + 1;
    }
}
int main(void) {
    int t1 = spawn(worker, 400);
    int t2 = spawn(worker, 400);
    join(t1); join(t2);
    print(count);
    return 0;
}
`

// barrierPhases: the water pattern — false races across a barrier.
const barrierPhases = `
int bar;
int acc[2];
int total;
void interf(int id) {
    int s = 0;
    for (int i = 0; i < 300; i++) { s += i; }
    acc[id] = s;
    total = acc[0] + acc[1];
}
void bndry(int id) {
    total = total + acc[id];
}
void worker(int id) {
    interf(id);
    barrier_wait(&bar);
    if (id == 0) {
        bndry(id);
    }
    barrier_wait(&bar);
}
int main(void) {
    barrier_init(&bar, 2);
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 1);
    join(t1); join(t2);
    print(total);
    return 0;
}
`

// radixSlices: the radix pattern — disjoint partitions, loop-lock bounds.
const radixSlices = `
int rank[256];
int done;
int m;
void worker(int base) {
    for (int i = 0; i < 128; i++) {
        rank[base + i] = base + i * 3;
    }
    lock(&m);
    done = done + 1;
    unlock(&m);
}
int main(void) {
    int t1 = spawn(worker, 0);
    int t2 = spawn(worker, 128);
    join(t1); join(t2);
    int s = 0;
    for (int i = 0; i < 256; i++) { s += rank[i]; }
    print(s);
    print(done);
    return 0;
}
`

func world() *oskit.World { return oskit.NewWorld(7) }

// checkReplay records ip under recSeed and replays it under repSeed; the
// replay must bit-match the recording, or both outputs are printed.
func checkReplay(t *testing.T, ip *Instrumented, recSeed, repSeed uint64) {
	t.Helper()
	c := ip.RecordAndCheck(RunConfig{World: world(), Seed: recSeed, Table: ip.Table}, repSeed, nil)
	if c.Matches {
		return
	}
	var replayed []byte
	if c.Replay != nil {
		replayed = c.Replay.Output
	}
	t.Fatalf("seeds %d/%d: record %v, replay %v\nrecorded output: %q\nreplayed output: %q\nsource:\n%s",
		recSeed, repSeed, c.RecordErr, c.ReplayErr, c.Record.Output, replayed, ip.Prog.Source)
}

// mustLoad loads src or fails the test.
func mustLoad(t *testing.T, name, src string) *Program {
	t.Helper()
	p, err := Load(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOriginalProgramHasDynamicRaces(t *testing.T) {
	p := mustLoad(t, "racy.mc", racyCounter)
	races, r := CheckDynamicRaces(p, nil, RunConfig{World: world(), Seed: 3})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if len(races) == 0 {
		t.Fatalf("expected dynamic races in the racy counter")
	}
}

func TestNaiveInstrumentationMakesProgramRaceFree(t *testing.T) {
	p := mustLoad(t, "racy.mc", racyCounter)
	ip, err := p.Instrument(nil, instrument.NaiveOptions())
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	for seed := uint64(0); seed < 4; seed++ {
		races, r := CheckDynamicRaces(ip.Prog, ip.Table, RunConfig{World: world(), Seed: seed, Table: ip.Table})
		if r.Err != nil {
			t.Fatalf("seed %d run: %v\nsource:\n%s", seed, r.Err, ip.Prog.Source)
		}
		if len(races) != 0 {
			t.Fatalf("seed %d: instrumented program still has races: %v\nsource:\n%s",
				seed, races[0], ip.Prog.Source)
		}
	}
}

func TestRecordReplayDeterministicNaive(t *testing.T) {
	p := mustLoad(t, "racy.mc", racyCounter)
	ip, err := p.Instrument(nil, instrument.NaiveOptions())
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	// Record with one seed, replay with very different seeds: the log
	// must fully determine the outcome.
	for _, seeds := range [][2]uint64{{1, 99}, {5, 1234}, {42, 0}} {
		checkReplay(t, ip, seeds[0], seeds[1])
	}
}

func TestDRFOnlyRecordingDivergesOnRacyProgram(t *testing.T) {
	// The negative control: record the ORIGINAL racy program (inputs +
	// program sync only) and replay under different seeds. Some pair must
	// diverge — otherwise weak-locks would be pointless on this workload.
	p := mustLoad(t, "racy.mc", racyCounter)
	diverged := false
	for seed := uint64(0); seed < 6 && !diverged; seed++ {
		recRes, log, _ := Record(p, nil, RunConfig{World: world(), Seed: seed}, nil)
		if recRes.Err != nil {
			t.Fatalf("record: %v", recRes.Err)
		}
		rep, err := replay.NewStreamReplayer(bytes.NewReader(log.Bytes()), vm.CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		repRes, err := Replay(p, nil, rep, RunConfig{World: world(), Seed: seed + 77})
		if err != nil || repRes.Hash64() != recRes.Hash64() {
			diverged = true
		}
	}
	if !diverged {
		t.Fatalf("DRF-only replay never diverged on a racy program across 6 seeds")
	}
}

func TestFunctionLocksViaProfile(t *testing.T) {
	p := mustLoad(t, "water.mc", barrierPhases)
	if len(p.Races.Pairs) == 0 {
		t.Fatalf("RELAY found no races in the barrier program")
	}
	conc := p.ProfileNonConcurrency(func(run int) *oskit.World { return oskit.NewWorld(uint64(run)) }, 6, 100)
	ip, err := p.Instrument(conc, instrument.AllOptions())
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	counts := ip.Table.CountByKind()
	if counts[weaklock.KindFunc] == 0 {
		t.Errorf("expected function-locks for barrier-separated phases; table: %+v, report: %+v",
			counts, ip.Report.FuncLockOf)
	}
	checkReplay(t, ip, 3, 888)
	// No weak-lock timeouts expected (paper: none observed).
	r := ip.Prog.RunNative(RunConfig{World: world(), Seed: 11, Table: ip.Table})
	if r.Err != nil {
		t.Fatalf("native instrumented run: %v", r.Err)
	}
	if r.WLStats.Timeouts != 0 {
		t.Errorf("unexpected weak-lock timeouts: %d", r.WLStats.Timeouts)
	}
}

func TestLoopLocksWithPreciseBounds(t *testing.T) {
	p := mustLoad(t, "radix.mc", radixSlices)
	conc := p.ProfileNonConcurrency(func(run int) *oskit.World { return oskit.NewWorld(uint64(run)) }, 4, 500)
	ip, err := p.Instrument(conc, instrument.Options{LoopLocks: true, BBLocks: true, LoopBodyThreshold: 14})
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	if !strings.Contains(ip.Prog.Source, "wl_acquire(1") {
		t.Errorf("expected a loop-granularity acquire; source:\n%s", ip.Prog.Source)
	}
	// At least one loop site should carry precise symbolic bounds (the
	// worker's partitioned writes).
	precise := false
	for _, s := range ip.Report.Sites {
		if s.Kind == weaklock.KindLoop && s.Precise {
			precise = true
		}
	}
	if !precise {
		t.Errorf("no precise loop bounds found; sites: %+v", ip.Report.Sites)
	}
	checkReplay(t, ip, 9, 321)
	// The partitioned loops must actually run concurrently: contention on
	// the ranged loop-locks should be far below full serialization.
	races, r := CheckDynamicRaces(ip.Prog, ip.Table, RunConfig{World: world(), Seed: 5, Table: ip.Table})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if len(races) != 0 {
		t.Errorf("instrumented radix still racy: %v", races[0])
	}
}

func TestAllOptsCheaperThanNaive(t *testing.T) {
	p := mustLoad(t, "radix.mc", radixSlices)
	conc := p.ProfileNonConcurrency(func(run int) *oskit.World { return oskit.NewWorld(uint64(run)) }, 4, 500)

	native := p.RunNative(RunConfig{World: world(), Seed: 2})
	if native.Err != nil {
		t.Fatalf("native: %v", native.Err)
	}

	naive, err := p.Instrument(nil, instrument.NaiveOptions())
	if err != nil {
		t.Fatalf("naive instrument: %v", err)
	}
	allOpt, err := p.Instrument(conc, instrument.AllOptions())
	if err != nil {
		t.Fatalf("all-opts instrument: %v", err)
	}

	rNaive, _, _ := naive.RecordTo(RunConfig{World: world(), Seed: 2, Table: naive.Table}, nil)
	if rNaive.Err != nil {
		t.Fatalf("naive record: %v", rNaive.Err)
	}
	rAll, _, _ := allOpt.RecordTo(RunConfig{World: world(), Seed: 2, Table: allOpt.Table}, nil)
	if rAll.Err != nil {
		t.Fatalf("all-opts record: %v", rAll.Err)
	}

	ovNaive := float64(rNaive.Makespan) / float64(native.Makespan)
	ovAll := float64(rAll.Makespan) / float64(native.Makespan)
	if ovAll >= ovNaive {
		t.Errorf("all-opts overhead %.2fx not below naive %.2fx", ovAll, ovNaive)
	}
	if ovAll > 3.0 {
		t.Errorf("all-opts overhead %.2fx unexpectedly high", ovAll)
	}
	// Weak-lock ops should drop by a large factor.
	if rAll.WLStats.TotalOps()*4 > rNaive.WLStats.TotalOps() {
		t.Errorf("all-opts wl ops %d not well below naive %d",
			rAll.WLStats.TotalOps(), rNaive.WLStats.TotalOps())
	}
}

func TestInstrumentedOutputMatchesOriginalSemantics(t *testing.T) {
	// The transformation must not change what a DRF schedule computes:
	// for the radix program (deterministic given locks), the printed sum
	// must equal the original's.
	p := mustLoad(t, "radix.mc", radixSlices)
	orig := p.RunNative(RunConfig{World: world(), Seed: 4})
	if orig.Err != nil {
		t.Fatalf("orig: %v", orig.Err)
	}
	ip, err := p.Instrument(nil, instrument.NaiveOptions())
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	inst := ip.Prog.RunNative(RunConfig{World: world(), Seed: 4, Table: ip.Table})
	if inst.Err != nil {
		t.Fatalf("instrumented: %v\nsource:\n%s", inst.Err, ip.Prog.Source)
	}
	if string(orig.Output) != string(inst.Output) {
		t.Errorf("output changed: %q vs %q", orig.Output, inst.Output)
	}
}
