package replay_test

import (
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
	f := parser.MustParse("forced.mc", forcedSrc)
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
