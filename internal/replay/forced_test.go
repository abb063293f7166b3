package replay_test

import (
	"bytes"
	"fmt"
	"testing"

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

	rec := replay.NewRecorder(oskit.NewWorld(1), vm.DefaultCost())
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
	log := rec.Log()

	// The log carries the anchored forced record.
	foundForced := false
	for _, recs := range log.Orders {
		for _, r := range recs {
			if r.Kind == vm.EvWLForcedRelease {
				foundForced = true
				if !r.Anchor.Blocked {
					t.Errorf("holder was parked in cond_wait; anchor should be Blocked")
				}
			}
		}
	}
	if !foundForced {
		t.Fatalf("no forced record in the log")
	}

	for _, repSeed := range []uint64{999, 123456, 7} {
		rep := replay.NewReplayer(log, vm.DefaultCost())
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
// through both replayer sources, with and without sinks. Each of a
// thread's anchors is injected only if the VM reloads the thread's next
// anchor after committing the previous one.
func TestForcedPreemptionRunningAnchor(t *testing.T) {
	p, tbl := setupWL(t, "running.mc", runningSrc)

	rec := replay.NewRecorder(oskit.NewWorld(1), vm.DefaultCost())
	var stream bytes.Buffer
	lw := replay.NewLogWriter(&stream)
	rec.AttachWriter(lw)
	recRes := vm.Run(p, vm.Config{
		Inputs: rec, Monitor: rec, WL: tbl,
		Seed: 3, WLTimeout: 20_000,
	})
	if recRes.Err != nil {
		t.Fatalf("record: %v", recRes.Err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	log := rec.Log()

	running := map[int32]int{}
	for _, recs := range log.Orders {
		for _, r := range recs {
			if r.Kind == vm.EvWLForcedRelease {
				if r.Anchor.Blocked {
					t.Fatalf("owner was running, anchor %+v is blocked", r.Anchor)
				}
				running[r.Tid]++
			}
		}
	}
	if len(running) != 1 || recRes.WLStats.Timeouts != 3 {
		t.Fatalf("want 3 running anchors on one thread, got %v (timeouts %d)", running, recRes.WLStats.Timeouts)
	}

	sources := map[string]func() *replay.Replayer{
		"memory": func() *replay.Replayer { return replay.NewReplayer(log, vm.DefaultCost()) },
		"stream": func() *replay.Replayer {
			r, err := replay.NewStreamReplayer(bytes.NewReader(stream.Bytes()), vm.DefaultCost())
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
	}
	for _, repSeed := range []uint64{999, 123456, 7} {
		for src, open := range sources {
			for _, sinks := range [][]vm.EventSink{nil, sinkSet()} {
				rep := open()
				repRes := vm.Run(p, vm.Config{
					Inputs: rep, Monitor: rep, WL: tbl,
					Seed: repSeed, DisableTimeouts: true, Sinks: sinks,
				})
				what := fmt.Sprintf("seed %d, %s replayer, %d sinks", repSeed, src, len(sinks))
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
}
