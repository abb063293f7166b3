package harness

// The observed pipeline: Observe runs the full Chimera flow for one
// program under one configuration with every stage wrapped in a tracer
// span, and aggregates the runtime counters (weak-lock sites, event
// batches, log streams, analysis cache, dynamic checker) into an
// obs.Report. It backs racecheck's -trace/-metrics flags and the
// observability determinism tests.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/oskit"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vm"
)

// ObserveOptions parameterizes one observed pipeline run. The zero value
// selects the harness defaults (config "all", epoch checker, Default()
// seeds and heap).
type ObserveOptions struct {
	// Config is the instrumentation configuration name
	// (instrument.OptionsFor vocabulary, "+mhp" suffix honored). Default
	// "all".
	Config string

	// Workers is the evaluation-world worker count. Default Default().Workers.
	Workers int

	// Parallel is the analysis worker count (relay wave scheduling).
	// Default 1.
	Parallel int

	Seed       uint64 // record/check schedule seed (default Default().Seed)
	ReplaySeed uint64 // replay schedule seed (default Default().ReplaySeed)

	// Checker selects the dynamic race checker: "epoch" (default) or
	// "vector".
	Checker string

	// Cache, when non-nil, is the shared analysis cache to load through;
	// a fresh cache is used otherwise (so the report's cache section
	// reflects exactly this run).
	Cache *core.Cache

	// Clock, when non-nil, drives the tracer instead of the wall clock —
	// the determinism tests inject a virtual clock so even span
	// durations are reproducible.
	Clock func() int64
}

// ObserveTarget is the program under observation: its source plus the
// worlds to profile and evaluate it in.
type ObserveTarget struct {
	Name         string
	Source       string
	ProfileWorld func(run int) *oskit.World
	ProfileRuns  int
	EvalWorld    func(workers int) *oskit.World
}

// TargetFor wraps an embedded benchmark as an observation target.
func TargetFor(b *bench.Benchmark) ObserveTarget {
	return ObserveTarget{
		Name:         b.Name,
		Source:       b.FullSource(),
		ProfileWorld: b.ProfileWorld,
		ProfileRuns:  b.ProfileRuns,
		EvalWorld:    b.EvalWorld,
	}
}

// Observation is the result of one observed pipeline run.
type Observation struct {
	Tracer *obs.Tracer
	Report *obs.Report

	Cert          *certify.Certificate
	Races         []trace.Race
	ReplayMatches bool
}

// ObserveBench observes an embedded benchmark by name.
func ObserveBench(benchName string, o ObserveOptions) (*Observation, error) {
	b := bench.ByName(benchName)
	if b == nil {
		return nil, fmt.Errorf("unknown benchmark %q", benchName)
	}
	return Observe(TargetFor(b), o)
}

func (o *ObserveOptions) fill() {
	def := Default()
	if o.Config == "" {
		o.Config = "all"
	}
	if o.Workers == 0 {
		o.Workers = def.Workers
	}
	if o.Parallel == 0 {
		o.Parallel = 1
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if o.ReplaySeed == 0 {
		o.ReplaySeed = def.ReplaySeed
	}
	if o.Checker == "" {
		o.Checker = "epoch"
	}
	if o.Cache == nil {
		o.Cache = core.NewCache(nil)
	}
}

// Observe runs the traced pipeline end to end: analyze → MHP refinement
// → profile → instrument → certify → record → replay → dynamic check.
// The MHP refinement stage always runs (and appears in the trace) even
// for configurations that instrument the unrefined report, so every
// trace covers every pipeline stage.
func Observe(t ObserveTarget, o ObserveOptions) (*Observation, error) {
	o.fill()
	var tr *obs.Tracer
	if o.Clock != nil {
		tr = obs.NewTracerWithClock(o.Clock)
	} else {
		tr = obs.NewTracer()
	}

	root := tr.Start("pipeline")
	root.SetStr("program", t.Name).SetStr("config", o.Config)

	sp := tr.Start("analyze")
	prog, err := o.Cache.Load(t.Name, t.Source, o.Parallel, tr)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("pairs", int64(len(prog.Races.Pairs))).End()

	sp = tr.Start("mhp-refine")
	refined := prog.RefinedRaces()
	sp.SetAttr("kept", int64(len(refined.Pairs))).
		SetAttr("pruned", int64(len(refined.Pruned))).End()
	rep := prog.Races
	if strings.HasSuffix(o.Config, "+mhp") {
		rep = refined
	}

	sp = tr.Start("profile")
	conc := prog.ProfileNonConcurrency(t.ProfileWorld, t.ProfileRuns, 10_000)
	sp.SetAttr("runs", int64(t.ProfileRuns)).
		SetAttr("concurrent_pairs", int64(conc.PairCount())).End()

	sp = tr.Start("instrument")
	iopts, known := instrument.OptionsFor(strings.TrimSuffix(o.Config, "+mhp"))
	if !known {
		return nil, fmt.Errorf("unknown config %q", o.Config)
	}
	iopts.Tracer = tr
	ip, err := prog.InstrumentWith(rep, conc, iopts)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("weak_locks", int64(ip.Table.Len())).
		SetAttr("sites", int64(len(ip.Report.Sites))).End()

	sp = tr.Start("certify")
	cert, _, err := ip.Certify(o.Config)
	if err != nil {
		return nil, fmt.Errorf("%s certify: %w", t.Name, err)
	}
	ok := int64(0)
	if cert.OK {
		ok = 1
	}
	sp.SetAttr("ok", ok).End()

	sp = tr.Start("record")
	var cw countWriter
	rcRec := core.RunConfig{World: t.EvalWorld(o.Workers), Seed: o.Seed, Table: ip.Table}
	recRes, log, lw := ip.RecordTo(rcRec, &cw)
	if recRes.Err != nil {
		return nil, fmt.Errorf("%s record: %w", t.Name, recRes.Err)
	}
	sp.SetAttr("makespan", recRes.Makespan).
		SetAttr("input_records", int64(log.InputCount())).
		SetAttr("order_records", int64(log.OrderCount())).
		SetAttr("log_bytes", cw.n).End()

	sp = tr.Start("replay")
	repRes, repErr := ip.Replay(log, core.RunConfig{
		World: t.EvalWorld(o.Workers), Seed: o.ReplaySeed, Table: ip.Table,
	})
	matches := repErr == nil && repRes.Hash64() == recRes.Hash64()
	match := int64(0)
	if matches {
		match = 1
	}
	if repErr == nil {
		sp.SetAttr("makespan", repRes.Makespan)
	}
	sp.SetAttr("match", match).End()
	if repErr != nil {
		return nil, fmt.Errorf("%s replay: %w", t.Name, repErr)
	}

	// The dynamic check is a separate run: the record run carries no
	// sinks (observation stays off there, as in the measured harness), so
	// the event-stream metrics describe the checked execution.
	sp = tr.Start("dynamic-check")
	var chk trace.RaceChecker
	switch o.Checker {
	case "epoch":
		chk = trace.NewChecker(0)
	case "vector":
		chk = trace.NewVectorChecker(0)
	default:
		return nil, fmt.Errorf("unknown checker %q (want epoch or vector)", o.Checker)
	}
	counter := &obs.EventCounter{}
	chkStart := time.Now()
	chkRes := core.CheckDynamicRacesWith(ip.Prog, ip.Table, core.RunConfig{
		World: t.EvalWorld(o.Workers), Seed: o.Seed,
		Sinks: []vm.EventSink{counter},
	}, chk)
	chkWall := time.Since(chkStart).Nanoseconds()
	if chkRes.Err != nil {
		return nil, fmt.Errorf("%s checker run: %w", t.Name, chkRes.Err)
	}
	races := chk.Races()
	sp.SetAttr("races", int64(len(races))).
		SetAttr("events", chkRes.Counters.EventsEmitted).End()
	root.End()

	wl := obs.WeakLocksFrom(ip.Table, recRes.WLSites)
	wl.Timeouts = recRes.WLStats.Timeouts
	wl.OrderLogEntries = int64(log.OrderCount(vm.SyncWeakLock))
	wl.AcquireOrderEntries = countAcquireEntries(log)

	ws := lw.Stats()
	rpt := &obs.Report{
		Schema:    obs.Schema,
		Program:   t.Name,
		Config:    o.Config,
		Stages:    tr.Stages(),
		WeakLocks: wl,
		Events:    counter.Events(chkRes.Counters.EventsEmitted, chkRes.Counters.EventBatches),
		Log: &obs.LogStreams{
			TotalBytes:    cw.n,
			InputChunks:   ws.InputChunks,
			OrderChunks:   ws.OrderChunks,
			InputRecords:  ws.InputRecords,
			OrderRecords:  ws.OrderRecords,
			InputRawBytes: ws.InputRawBytes,
			OrderRawBytes: ws.OrderRawBytes,
			InputBytes:    ws.InputBytes,
			OrderBytes:    ws.OrderBytes,
		},
		Checker: &obs.Checker{Name: o.Checker, Races: len(races), WallNS: chkWall},
	}
	hits, partial, misses := o.Cache.Stats()
	rpt.Cache = &obs.CacheStats{Hits: hits, PartialHits: partial, Misses: misses}
	rpt.SummaryStore = o.Cache.SummaryStats()

	return &Observation{
		Tracer: tr, Report: rpt,
		Cert: cert, Races: races, ReplayMatches: matches,
	}, nil
}

// countAcquireEntries counts the order log's weak-lock EvWLAcquire
// records — the figure the report's AcquireOrderEntries invariant checks
// against the per-site acquire totals.
func countAcquireEntries(log *replay.Log) int64 {
	var n int64
	for key, recs := range log.Orders {
		if key.Class != vm.SyncWeakLock {
			continue
		}
		for _, r := range recs {
			if r.Kind == vm.EvWLAcquire {
				n++
			}
		}
	}
	return n
}
