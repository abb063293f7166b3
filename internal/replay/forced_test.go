package replay_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/oskit"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/weaklock"
)

// forcedSrc blocks on a condition variable while holding a weak-lock, so a
// recording with a short timeout contains forced preemptions (paper §2.3).
const forcedSrc = `
int m;
int cv;
int flag;
int g;
int trace[16];
int tpos;

void holder(int n) {
    wl_acquire(3, 0, -4611686018427387904, 4611686018427387904);
    g = 1;
    trace[tpos] = 100;
    tpos = tpos + 1;
    lock(&m);
    while (flag == 0) {
        cond_wait(&cv, &m);
    }
    unlock(&m);
    trace[tpos] = 101;
    tpos = tpos + 1;
    g = 2;
    wl_release(3, 0);
}

void waiter(int n) {
    wl_acquire(3, 0, -4611686018427387904, 4611686018427387904);
    g = g + 10;
    trace[tpos] = 200;
    tpos = tpos + 1;
    wl_release(3, 0);
    lock(&m);
    flag = 1;
    cond_signal(&cv);
    unlock(&m);
}

int main(void) {
    int t1 = spawn(holder, 0);
    for (int i = 0; i < 3000; i++) { }
    int t2 = spawn(waiter, 0);
    join(t1);
    join(t2);
    print(g);
    for (int i = 0; i < tpos; i++) { print(trace[i]); }
    return 0;
}
`

func forcedSetup(t *testing.T) (*vm.Program, *weaklock.Table) {
	t.Helper()
	return setupWL(t, "forced.mc", forcedSrc)
}

// setupWL compiles src with a one-entry weak-lock table (lock 0).
func setupWL(t *testing.T, name, src string) (*vm.Program, *weaklock.Table) {
	t.Helper()
	f := parser.MustParse(name, src)
	info := types.MustCheck(f)
	p, err := vm.Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	tbl := weaklock.NewTable()
	tbl.Add(weaklock.KindInstr, "t", false)
	return p, tbl
}

// TestForcedPreemptionRecordAndReplay records an execution that contains a
// forced weak-lock preemption and replays it bit-identically under a
// different schedule seed — the mechanism the paper described but did not
// port (§2.3).
func TestForcedPreemptionRecordAndReplay(t *testing.T) {
	p, tbl := forcedSetup(t)

	rec := replay.NewRecorder(oskit.NewWorld(1), vm.DefaultCost(), nil)
	recRes := vm.Run(p, vm.Config{
		Inputs: rec, Monitor: rec, WL: tbl,
		Seed: 3, WLTimeout: 50_000,
	})
	if recRes.Err != nil {
		t.Fatalf("record: %v", recRes.Err)
	}
	if recRes.WLStats.Timeouts == 0 {
		t.Fatalf("scenario should force a preemption during recording")
	}
	log, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The log carries the anchored forced record.
	forced := forcedRecords(t, log.Bytes())
	if len(forced) == 0 {
		t.Fatalf("no forced record in the log")
	}
	for _, r := range forced {
		if !r.Anchor.Blocked {
			t.Errorf("holder was parked in cond_wait; anchor should be Blocked")
		}
	}

	for _, repSeed := range []uint64{999, 123456, 7} {
		rep := openStream(t, log.Bytes())
		repRes := vm.Run(p, vm.Config{
			Inputs: rep, Monitor: rep, WL: tbl,
			Seed: repSeed, DisableTimeouts: true,
		})
		if repRes.Err != nil {
			t.Fatalf("replay seed %d: %v", repSeed, repRes.Err)
		}
		if rep.Err() != nil {
			t.Fatalf("replay seed %d divergence: %v", repSeed, rep.Err())
		}
		if !rep.Drained() {
			t.Fatalf("replay seed %d: order log not drained", repSeed)
		}
		if repRes.Hash64() != recRes.Hash64() {
			t.Fatalf("replay seed %d diverged:\nrecorded %q\nreplayed %q",
				repSeed, recRes.Output, repRes.Output)
		}
		if repRes.WLStats.Timeouts != recRes.WLStats.Timeouts {
			t.Errorf("replay injected %d preemptions, recorded %d",
				repRes.WLStats.Timeouts, recRes.WLStats.Timeouts)
		}
	}
}

// forcedRecords returns a stream's forced-preemption records, in commit
// order.
func forcedRecords(t *testing.T, data []byte) []replay.OrderRec {
	t.Helper()
	var out []replay.OrderRec
	for _, r := range records(t, data) {
		if !r.IsInput && r.Order.Kind == vm.EvWLForcedRelease {
			out = append(out, r.Order)
		}
	}
	return out
}

// openStream returns a replayer over a stream.
func openStream(t *testing.T, data []byte) *replay.Replayer {
	t.Helper()
	rep, err := replay.NewStreamReplayer(bytes.NewReader(data), vm.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestForcedPreemptionViaCore exercises the same path through the public
// pipeline entry points.
func TestForcedPreemptionViaCore(t *testing.T) {
	prog, err := core.Load("forced.mc", forcedSrc)
	if err != nil {
		t.Fatal(err)
	}
	tbl := weaklock.NewTable()
	tbl.Add(weaklock.KindInstr, "t", false)

	ip := &core.Instrumented{Prog: prog, Table: tbl}
	world := oskit.NewWorld(1)
	recRes, log, _ := ip.RecordTo(core.RunConfig{
		World: world, Seed: 3, Table: tbl, MaxSteps: 50_000_000,
	}, nil)
	// Shorten the timeout via a direct record when the default did not
	// trigger one.
	if recRes.Err != nil {
		t.Fatalf("record: %v", recRes.Err)
	}
	repRes, err := ip.Replay(log, core.RunConfig{
		World: oskit.NewWorld(1), Seed: 31337, Table: tbl,
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if repRes.Hash64() != recRes.Hash64() {
		t.Fatalf("replay diverged")
	}
}

// TestForcedPreemptionOfStalledReacquire replays a recording in which a
// thread stalled reacquiring one weak-lock is preempted of another: water
// under instr with a 2000-cycle timeout forces weaklock:0 from thread 2
// while it waits to reacquire weaklock:1. In replay weaklock:1 is free when
// thread 2 gets there, so the preemption must fire at that acquire's gate,
// before the acquire commits and moves the thread past its anchor.
func TestForcedPreemptionOfStalledReacquire(t *testing.T) {
	b := bench.ByName("water")
	prog, err := core.Load(b.Name, b.FullSource())
	if err != nil {
		t.Fatal(err)
	}
	config, _ := core.ParseConfig("instr")
	ip, err := prog.InstrumentAs(config, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := replay.NewRecorder(b.EvalWorld(4), vm.CostModel{}, nil)
	recRes := vm.Run(ip.Prog.Code, vm.Config{Inputs: rec, Monitor: rec, WL: ip.Table, Seed: 1, WLTimeout: 2000})
	if recRes.Err != nil || recRes.WLStats.Timeouts == 0 {
		t.Fatalf("record: err %v, %d timeouts; want forced preemptions", recRes.Err, recRes.WLStats.Timeouts)
	}
	log, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{2, 987654} {
		repRes, err := core.Replay(ip.Prog, ip.Table, openStream(t, log.Bytes()), core.RunConfig{World: b.EvalWorld(4), Seed: seed})
		if err != nil {
			t.Fatalf("replay seed %d: %v", seed, err)
		}
		if repRes.Hash64() != recRes.Hash64() || repRes.WLStats.Timeouts != recRes.WLStats.Timeouts {
			t.Fatalf("replay seed %d: hash %x with %d preemptions, recorded %x with %d", seed,
				repRes.Hash64(), repRes.WLStats.Timeouts, recRes.Hash64(), recRes.WLStats.Timeouts)
		}
	}
}

// runningSrc keeps weak-lock 0 held by owner through a long loop while
// waiter acquires it three times, pausing between acquires so the owner
// re-acquires the lock in between; a recording with a short timeout
// forces preemptions of a running owner: anchors with Blocked false,
// which fire before an instruction rather than inside a parked operation.
const runningSrc = `
int g;
int w;

void owner(int n) {
    wl_acquire(3, 0, -4611686018427387904, 4611686018427387904);
    for (int i = 0; i < 200000; i++) {
        g = g + 1;
    }
    wl_release(3, 0);
}

void waiter(int n) {
    for (int k = 0; k < 3; k++) {
        wl_acquire(3, 0, -4611686018427387904, 4611686018427387904);
        w = w * 7 + g;
        wl_release(3, 0);
        for (int j = 0; j < 2000; j++) { }
    }
}

int main(void) {
    int t1 = spawn(owner, 0);
    int t2 = spawn(waiter, 0);
    join(t1);
    join(t2);
    print(g);
    print(w);
    return 0;
}
`

// TestForcedPreemptionRunningAnchor replays running-anchored forced
// preemptions — the injection path that fires before an instruction —
// with and without sinks. Each of a thread's anchors is injected only if
// the VM reloads the thread's next anchor after committing the previous
// one.
func TestForcedPreemptionRunningAnchor(t *testing.T) {
	p, tbl := setupWL(t, "running.mc", runningSrc)

	rec := replay.NewRecorder(oskit.NewWorld(1), vm.DefaultCost(), nil)
	recRes := vm.Run(p, vm.Config{
		Inputs: rec, Monitor: rec, WL: tbl,
		Seed: 3, WLTimeout: 20_000,
	})
	if recRes.Err != nil {
		t.Fatalf("record: %v", recRes.Err)
	}
	log, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}

	running := map[int32]int{}
	for _, r := range forcedRecords(t, log.Bytes()) {
		if r.Anchor.Blocked {
			t.Fatalf("owner was running, anchor %+v is blocked", r.Anchor)
		}
		running[r.Tid]++
	}
	if len(running) != 1 || recRes.WLStats.Timeouts != 3 {
		t.Fatalf("want 3 running anchors on one thread, got %v (timeouts %d)", running, recRes.WLStats.Timeouts)
	}

	for _, repSeed := range []uint64{999, 123456, 7} {
		for _, sinks := range [][]vm.EventSink{nil, sinkSet()} {
			rep := openStream(t, log.Bytes())
			repRes := vm.Run(p, vm.Config{
				Inputs: rep, Monitor: rep, WL: tbl,
				Seed: repSeed, DisableTimeouts: true, Sinks: sinks,
			})
			what := fmt.Sprintf("seed %d, %d sinks", repSeed, len(sinks))
			if repRes.Err != nil || rep.Err() != nil {
				t.Fatalf("%s: %v / %v", what, repRes.Err, rep.Err())
			}
			if !rep.Drained() {
				t.Fatalf("%s: log not drained", what)
			}
			if repRes.Hash64() != recRes.Hash64() {
				t.Fatalf("%s diverged:\nrecorded %q\nreplayed %q", what, recRes.Output, repRes.Output)
			}
			if repRes.WLStats.Timeouts != recRes.WLStats.Timeouts {
				t.Errorf("%s: injected %d preemptions, recorded %d", what, repRes.WLStats.Timeouts, recRes.WLStats.Timeouts)
			}
		}
	}
}
