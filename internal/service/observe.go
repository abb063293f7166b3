package service

// The observed pipeline: Observe runs the full Chimera flow for one
// program under one configuration with every stage wrapped in a tracer
// span, and aggregates the runtime counters (weak-lock sites, event
// batches, log streams, analysis cache, dynamic checker) into an
// obs.Report. It backs racecheck's -trace/-metrics flags and the
// observability determinism tests.

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oskit"
)

// ObserveOptions parameterizes one observed pipeline run. The zero value
// selects the evaluation defaults (config "all", epoch checker, Table 2's
// record seed). Every run evaluates in a world of bench.DefaultWorkers
// workers, replays under core.DefaultReplaySeed, and loads through a fresh
// analysis cache, so the report's cache section reflects exactly this run.
type ObserveOptions struct {
	// Config is the instrumentation configuration label
	// (core.ParseConfig). Default "all".
	Config string

	// Parallel is the analysis worker count (relay wave scheduling).
	// Default 1.
	Parallel int

	Seed uint64 // record schedule seed (default core.DefaultSeed)

	// Checker selects the dynamic race checker: "epoch" (default) or
	// "vector".
	Checker string
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
	ReplayMatches bool
}

func (o *ObserveOptions) fill() {
	if o.Config == "" {
		o.Config = "all"
	}
	if o.Parallel == 0 {
		o.Parallel = 1
	}
	if o.Seed == 0 {
		o.Seed = core.DefaultSeed
	}
	if o.Checker == "" {
		o.Checker = "epoch"
	}
}

// Observe runs the traced pipeline end to end: analyze → MHP refinement
// (→ precision refinement under "+precision" configurations) → profile →
// instrument → certify → record → replay → dynamic check. The MHP
// refinement stage always runs (and appears in the trace) even for
// configurations that instrument the unrefined report, so every trace
// covers every pipeline stage. The checkers and the event counter
// ride the replay (core.RecordAndCheck), so the report's event stream is
// the replay's.
func Observe(t ObserveTarget, o ObserveOptions) (*Observation, error) {
	o.fill()
	if o.Checker != "epoch" && o.Checker != "vector" {
		return nil, fmt.Errorf("unknown checker %q (want epoch or vector)", o.Checker)
	}
	config, known := core.ParseConfig(o.Config)
	if !known {
		return nil, fmt.Errorf("unknown config %q", o.Config)
	}
	tr := obs.NewTracer()
	cache := core.NewCache(nil)

	root := tr.Start("pipeline")
	root.SetStr("program", t.Name).SetStr("config", o.Config)

	sp := tr.Start("analyze")
	prog, err := cache.Load(t.Name, t.Source, o.Parallel, tr)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("pairs", int64(len(prog.Races.Pairs))).End()

	sp = tr.Start("mhp-refine")
	refined := prog.RefinedRaces()
	sp.SetAttr("kept", int64(len(refined.Pairs))).
		SetAttr("pruned", int64(len(refined.Pruned))).End()
	if config.Precision {
		sp = tr.Start("precision-refine")
		sp.SetAttr("kept", int64(len(prog.Report(config.MHP, true).Pairs))).End()
	}

	sp = tr.Start("profile")
	conc := prog.ProfileNonConcurrency(t.ProfileWorld, t.ProfileRuns, 10_000)
	sp.SetAttr("runs", int64(t.ProfileRuns)).
		SetAttr("concurrent_pairs", int64(conc.PairCount())).End()

	sp = tr.Start("instrument")
	ip, err := prog.InstrumentAs(config, conc, tr)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("weak_locks", int64(ip.Table.Len())).
		SetAttr("sites", int64(len(ip.Report.Sites))).End()

	sp = tr.Start("certify")
	cert, _, err := ip.Certify()
	if err != nil {
		return nil, fmt.Errorf("%s certify: %w", t.Name, err)
	}
	ok := int64(0)
	if cert.OK {
		ok = 1
	}
	sp.SetAttr("ok", ok).End()

	c := ip.RecordAndCheck(core.RunConfig{World: t.EvalWorld(bench.DefaultWorkers), Seed: o.Seed, Table: ip.Table},
		core.DefaultReplaySeed, tr)
	if c.RecordErr != nil {
		return nil, fmt.Errorf("%s record: %w", t.Name, c.RecordErr)
	}
	if c.ReplayErr != nil {
		return nil, fmt.Errorf("%s replay: %w", t.Name, c.ReplayErr)
	}
	root.End()

	checker := &obs.Checker{Name: o.Checker, Races: c.Epoch.RaceCount(), WallNS: c.Epoch.WallNS()}
	if o.Checker == "vector" {
		checker.Races, checker.WallNS = c.Vector.RaceCount(), c.Vector.WallNS()
	}
	rpt := &obs.Report{
		Schema:    obs.Schema,
		Program:   t.Name,
		Config:    o.Config,
		Stages:    tr.Stages(),
		WeakLocks: c.WeakLocks(),
		Events:    c.Events,
		Log:       &c.Logs,
		Checker:   checker,
	}
	hits, partial, misses := cache.Stats()
	rpt.Cache = &obs.CacheStats{Hits: hits, PartialHits: partial, Misses: misses}
	rpt.SummaryStore = cache.SummaryStats()

	return &Observation{
		Tracer: tr, Report: rpt,
		Cert: cert, ReplayMatches: c.Matches,
	}, nil
}
