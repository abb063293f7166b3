package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/oskit"
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
