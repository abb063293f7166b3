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
		c := ip.RecordAndCheck(RunConfig{World: oskit.NewWorld(1), Seed: seed}, seed+1, nil, nil)
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

// RecordAndCheck streams the log to its writer and traces one span per
// stage; the dynamic-check span runs no VM and only reads the verdicts.
func TestRecordAndCheckStreamAndSpans(t *testing.T) {
	ip, err := mustLoad(t, "racy.mc", racyCounter).Instrument(nil, instrument.AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewTracer()
	c := ip.RecordAndCheck(RunConfig{World: oskit.NewWorld(1), Seed: 1, Table: ip.Table}, 2, &buf, tr)
	if !c.Matches || !c.Agree || c.Epoch.RaceCount() != 0 {
		t.Fatalf("matches %v agree %v races %v", c.Matches, c.Agree, c.Epoch.Races())
	}
	if c.Logs.TotalBytes != int64(buf.Len()) || c.Logs.TotalBytes != c.Logs.InputBytes+c.Logs.OrderBytes+21 {
		t.Errorf("stream of %d bytes, logs %+v", buf.Len(), c.Logs)
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

// What the recorder's LogWriter booked is what a reader of the stream
// books: on real benchmarks, including multi-chunk input and order
// streams, Stat over the bytes RecordAndCheck streamed returns c.Logs,
// and c.Logs counts every byte.
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
			var buf bytes.Buffer
			rc := RunConfig{World: b.EvalWorld(bench.DefaultWorkers), Seed: DefaultSeed, Table: ip.Table}
			c := ip.RecordAndCheck(rc, DefaultReplaySeed, &buf, nil)
			if c.RecordErr != nil || !c.Matches {
				t.Fatalf("%s/%s: record %v, replay %v", name, label, c.RecordErr, c.ReplayErr)
			}
			if c.Logs.TotalBytes != int64(buf.Len()) {
				t.Errorf("%s/%s: ledger books %d bytes, the stream has %d", name, label, c.Logs.TotalBytes, buf.Len())
			}
			info, err := replay.Stat(&buf)
			if err != nil {
				t.Fatalf("%s/%s: Stat: %v", name, label, err)
			}
			if info.Streams != c.Logs {
				t.Errorf("%s/%s: Stat ledger %+v, writer's %+v", name, label, info.Streams, c.Logs)
			}
			multiInput = multiInput || c.Logs.InputChunks > 1
			multiOrder = multiOrder || c.Logs.OrderChunks > 1
		}
	}
	if !multiInput || !multiOrder {
		t.Errorf("no multi-chunk stream covered (input %v, order %v)", multiInput, multiOrder)
	}
}
