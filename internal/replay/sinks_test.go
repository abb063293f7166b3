package replay_test

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oskit"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/weaklock"
)

// sinkSet returns the sinks the checked replay attaches: an event counter
// and both race checkers.
func sinkSet() []vm.EventSink {
	return []vm.EventSink{&obs.EventCounter{}, trace.NewChecker(0), trace.NewVectorChecker(0)}
}

// recordReplay records p against world under seed 3, then replays the
// log under seed 999, attaching sinks() to both runs.
func recordReplay(t *testing.T, p *vm.Program, tbl *weaklock.Table, world *oskit.World, timeout int64, sinks func() []vm.EventSink) (rec, rep *vm.Result) {
	t.Helper()
	r := replay.NewRecorder(world, vm.DefaultCost(), nil)
	rec = vm.Run(p, vm.Config{Inputs: r, Monitor: r, WL: tbl, Seed: 3, WLTimeout: timeout, Sinks: sinks()})
	if rec.Err != nil {
		t.Fatalf("record: %v", rec.Err)
	}
	log, err := r.Close()
	if err != nil {
		t.Fatal(err)
	}
	pl := openStream(t, log.Bytes())
	rep = vm.Run(p, vm.Config{Inputs: pl, Monitor: pl, WL: tbl, Seed: 999, DisableTimeouts: true, Sinks: sinks()})
	if rep.Err != nil || pl.Err() != nil || !pl.Drained() {
		t.Fatalf("replay: %v / %v (drained %v)", rep.Err, pl.Err(), pl.Drained())
	}
	return rec, rep
}

// sameRun fails unless a run with sinks (b) did exactly what the run
// without them (a) did. Only the event-emission counters may differ.
func sameRun(t *testing.T, what string, a, b *vm.Result) {
	t.Helper()
	if a.Hash64() != b.Hash64() || a.Makespan != b.Makespan {
		t.Errorf("%s: hash %x makespan %d without sinks, hash %x makespan %d with", what,
			a.Hash64(), a.Makespan, b.Hash64(), b.Makespan)
	}
	if !reflect.DeepEqual(a.WLStats, b.WLStats) {
		t.Errorf("%s: WLStats differ:\n%+v\n%+v", what, a.WLStats, b.WLStats)
	}
	if !reflect.DeepEqual(a.WLSites, b.WLSites) {
		t.Errorf("%s: WLSites differ", what)
	}
	if b.Counters.EventsEmitted == 0 {
		t.Errorf("%s: the sinks saw no events", what)
	}
	ca, cb := a.Counters, b.Counters
	ca.EventsEmitted, ca.EventBatches = 0, 0
	cb.EventsEmitted, cb.EventBatches = 0, 0
	if ca != cb {
		t.Errorf("%s: counters differ:\n%+v\n%+v", what, ca, cb)
	}
}

// Sinks only observe: a recording and its replay must be the same with
// the checked replay's sinks attached as without any. The race checkers
// ride the replay on the strength of this.
func TestSinksNeverChangeARun(t *testing.T) {
	noSinks := func() []vm.EventSink { return nil }
	for _, name := range []string{"aget", "pfscan", "knot", "apache"} {
		b := bench.ByName(name)
		prog, err := core.Load(b.Name, b.FullSource())
		if err != nil {
			t.Fatal(err)
		}
		for _, config := range []string{"instr", "all+mhp"} {
			c, _ := core.ParseConfig(config)
			ip, err := prog.InstrumentAs(c, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec0, rep0 := recordReplay(t, ip.Prog.Code, ip.Table, b.EvalWorld(4), 0, noSinks)
			rec1, rep1 := recordReplay(t, ip.Prog.Code, ip.Table, b.EvalWorld(4), 0, sinkSet)
			sameRun(t, name+"/"+config+" record", rec0, rec1)
			sameRun(t, name+"/"+config+" replay", rep0, rep1)
		}
	}

	p, tbl := forcedSetup(t)
	rec0, rep0 := recordReplay(t, p, tbl, oskit.NewWorld(1), 50_000, noSinks)
	rec1, rep1 := recordReplay(t, p, tbl, oskit.NewWorld(1), 50_000, sinkSet)
	if rec0.WLStats.Timeouts == 0 {
		t.Fatalf("forced program recorded no forced preemption")
	}
	sameRun(t, "forced record", rec0, rec1)
	sameRun(t, "forced replay", rep0, rep1)
}
