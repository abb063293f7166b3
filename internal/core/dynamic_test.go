package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/oskit"
	"repro/internal/replay"
	"repro/internal/vm"
)

// sameStoreRace has two threads store the same constant to one global:
// a race whose outcome is the same under every schedule, so a recording
// made with no weak-lock table replays bit-identically.
const sameStoreRace = `
int g;
void w(int n) {
    g = 1;
}
int main(void) {
    int t1 = spawn(w, 0);
    int t2 = spawn(w, 0);
    join(t1);
    join(t2);
    print(g);
    return 0;
}
`

// The checkers ride the replay, so the replay must still show them the
// recorded execution's races: both report the race, in agreement. A
// checker left unattached would pass every clean-verdict gate but fail
// here.
func TestRecordAndCheckFindsRaceOnReplay(t *testing.T) {
	prog, err := Load("same_store.mc", sameStoreRace)
	if err != nil {
		t.Fatal(err)
	}
	ip := &Instrumented{Prog: prog}
	for _, seed := range []uint64{5, 77, 9999} {
		c := ip.RecordAndCheck(RunConfig{World: oskit.NewWorld(1), Seed: seed}, seed+1, nil)
		if c.RecordErr != nil || c.ReplayErr != nil || !c.Matches {
			t.Fatalf("seed %d: record %v, replay %v, matches %v", seed, c.RecordErr, c.ReplayErr, c.Matches)
		}
		if c.Epoch.RaceCount() != 1 || c.Vector.RaceCount() != 1 || !c.Agree {
			t.Errorf("seed %d: epoch %v, vector %v, agree %v; want the one race from both",
				seed, c.Epoch.Races(), c.Vector.Races(), c.Agree)
		}
		if c.Events.Emitted == 0 || c.Events.Emitted != c.Replay.Counters.EventsEmitted {
			t.Errorf("seed %d: events %+v, replay emitted %d", seed, c.Events, c.Replay.Counters.EventsEmitted)
		}
	}
}

// RecordAndCheck keeps the recording's bytes with their ledger and traces
// one span per stage; the dynamic-check span runs no VM and only reads the
// verdicts.
func TestRecordAndCheckStreamAndSpans(t *testing.T) {
	ip, err := mustLoad(t, "racy.mc", racyCounter).Instrument(nil, instrument.AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	c := ip.RecordAndCheck(RunConfig{World: oskit.NewWorld(1), Seed: 1, Table: ip.Table}, 2, tr)
	if !c.Matches || !c.Agree || c.Epoch.RaceCount() != 0 {
		t.Fatalf("matches %v agree %v races %v", c.Matches, c.Agree, c.Epoch.Races())
	}
	if n := len(c.Log.Bytes()); c.Logs.TotalBytes != int64(n) || c.Logs.TotalBytes != c.Logs.InputBytes+c.Logs.OrderBytes+21 {
		t.Errorf("recording of %d bytes, logs %+v", n, c.Logs)
	}
	stages := tr.Stages()
	var names []string
	for _, st := range stages {
		names = append(names, st.Path)
	}
	if got := fmt.Sprint(names); got != "[record replay dynamic-check]" {
		t.Fatalf("stages %s", got)
	}
	if ev := stages[2].Attrs.Get("events"); ev == 0 || ev != c.Events.Emitted {
		t.Errorf("dynamic-check events attribute %d, replay stream %d", ev, c.Events.Emitted)
	}
}

// The bytes the recorder's LogWriter emitted are the recording that
// RecordAndCheck replays, and what a reader of them books is what the
// metrics report: on real benchmarks, including multi-chunk input and
// order streams, a writer passed to Record receives exactly the
// recording's bytes, Stat over them returns c.Logs, and Stat's per-class
// and per-kind counts are the recording's counts, which the weak-lock
// metrics and the harness's Syscalls and SyncOps read.
func TestStatMatchesRecordedLedger(t *testing.T) {
	var multiInput, multiOrder bool
	for _, name := range []string{"aget", "pbzip2", "water"} {
		b := bench.ByName(name)
		prog, err := Load(name, b.FullSource())
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range []string{"instr", "all+mhp"} {
			config, _ := ParseConfig(label)
			ip, err := prog.InstrumentAs(config, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			what := name + "/" + label
			rc := func() RunConfig {
				return RunConfig{World: b.EvalWorld(bench.DefaultWorkers), Seed: DefaultSeed, Table: ip.Table}
			}
			c := ip.RecordAndCheck(rc(), DefaultReplaySeed, nil)
			if c.RecordErr != nil || !c.Matches {
				t.Fatalf("%s: record %v, replay %v", what, c.RecordErr, c.ReplayErr)
			}
			data := c.Log.Bytes()
			var teed bytes.Buffer
			if _, again, _ := ip.RecordTo(rc(), &teed); !bytes.Equal(teed.Bytes(), again.Bytes()) || !bytes.Equal(again.Bytes(), data) {
				t.Errorf("%s: the writer got %d bytes, the recording holds %d, RecordAndCheck's %d",
					what, teed.Len(), len(again.Bytes()), len(data))
			}
			if c.Logs.TotalBytes != int64(len(data)) {
				t.Errorf("%s: ledger books %d bytes, the stream has %d", what, c.Logs.TotalBytes, len(data))
			}
			info, err := replay.Stat(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: Stat: %v", what, err)
			}
			if info.Streams != c.Logs {
				t.Errorf("%s: Stat ledger %+v, writer's %+v", what, info.Streams, c.Logs)
			}
			for class := vm.SyncMutex; class <= vm.SyncSpawn; class++ {
				if got, want := info.OrderByClass[class.String()], int64(c.Log.OrderCount(class)); got != want {
					t.Errorf("%s: Stat counts %d %s records, the recording %d", what, got, class, want)
				}
			}
			for kind := vm.EvAcquire; kind <= vm.EvWLForcedRelease; kind++ {
				if got, want := info.OrderByKind[kind.String()], int64(c.Log.KindCount(kind)); got != want {
					t.Errorf("%s: Stat counts %d %s records, the recording %d", what, got, kind, want)
				}
			}
			wl := c.WeakLocks()
			if wl.OrderLogEntries != info.OrderByClass["weaklock"] || wl.AcquireOrderEntries != info.OrderByKind["wlacq"] ||
				wl.OrderLogEntries != wl.Acquires+wl.Releases+wl.Forced || wl.AcquireOrderEntries != wl.Acquires {
				t.Errorf("%s: weak-lock metrics %+v, Stat %v %v", what, *wl, info.OrderByClass, info.OrderByKind)
			}
			syncOps := info.OrderByClass["mutex"] + info.OrderByClass["barrier"] + info.OrderByClass["cond"] + info.OrderByClass["spawn"]
			if int64(c.Log.InputCount()) != info.Streams.InputRecords ||
				int64(c.Log.OrderCount(vm.SyncMutex, vm.SyncBarrier, vm.SyncCond, vm.SyncSpawn)) != syncOps {
				t.Errorf("%s: recording counts %d inputs and %d sync ops, Stat %d and %d", what,
					c.Log.InputCount(), c.Log.OrderCount(vm.SyncMutex, vm.SyncBarrier, vm.SyncCond, vm.SyncSpawn),
					info.Streams.InputRecords, syncOps)
			}
			multiInput = multiInput || c.Logs.InputChunks > 1
			multiOrder = multiOrder || c.Logs.OrderChunks > 1
		}
	}
	if !multiInput || !multiOrder {
		t.Errorf("no multi-chunk stream covered (input %v, order %v)", multiInput, multiOrder)
	}
}
