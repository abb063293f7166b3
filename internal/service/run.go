package service

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/certify"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/instrument"
	"repro/internal/mhp"
	"repro/internal/minic/ast"
	"repro/internal/oskit"
	"repro/internal/relay"
	"repro/internal/scenario"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Env is the per-tenant execution environment a long-running engine
// threads through RunRequest: a whole-program artifact cache and the
// tenant's summary-store view. A nil Env (the one-shot CLI) makes
// RunRequest behave exactly like the historical racecheck run — every
// invocation computes from scratch.
//
// The cache is a pure accelerator: it loads through the same
// core.LoadWith as the one-shot path, and the artifacts it returns are
// proven byte-identical to fresh computation (the determinism test
// layer), so an Env can change wall time and -summary-stats counters but
// never a verdict byte — load errors included.
type Env struct {
	Cache *core.Cache
	Store *summary.Store
}

// loadProgram loads an analyzed program through the tenant cache when
// one is available (which brings its own summary store, so o.Store is
// not used), and through core.LoadWith otherwise. Both routes produce
// identical artifacts and identical error text.
func (env *Env) loadProgram(name, src string, o core.LoadOptions) (*core.Program, error) {
	if env != nil && env.Cache != nil {
		return env.Cache.Load(name, src, o.Workers, o.Tracer)
	}
	return core.LoadWith(name, src, o)
}

// RunRequest executes one racecheck request and returns its process
// exit code. It is the entire verdict-producing pipeline behind both the
// offline CLI (env == nil) and the chimerad job engine (env carries the
// tenant's caches): one code path, so a verdict's bytes cannot depend on
// which front end asked for it.
func RunRequest(req *Request, env *Env, out, errOut io.Writer) int {
	if req.Gen != "" {
		if req.Dynamic || req.Certify || req.BatchDir != "" || req.Bench != "" || len(req.Args) != 0 {
			fmt.Fprintln(errOut, "racecheck: -gen takes a spec and combines only with -v")
			return ExitUsage
		}
		return runGen(req.Gen, req.Verbose, out, errOut)
	}

	if req.BatchDir != "" {
		if req.Dynamic || req.Certify || req.Bench != "" || len(req.Args) != 0 {
			fmt.Fprintln(errOut, "racecheck: -batch takes a directory and combines only with -mhp, -parallel, and -summary-stats")
			return ExitUsage
		}
		return runBatch(req.BatchDir, req.Parallel, req.MHP, req.SummaryStats, out, errOut)
	}
	if req.SummaryStats && !req.Incremental {
		fmt.Fprintln(errOut, "racecheck: -summary-stats requires -incremental or -batch")
		return ExitUsage
	}

	if req.TracePath != "" || req.MetricsPath != "" {
		if !req.Dynamic {
			fmt.Fprintln(errOut, "racecheck: -trace/-metrics require -dynamic")
			return ExitUsage
		}
		return runObserved(req, out, errOut)
	}

	if req.Dynamic {
		if req.Bench != "" {
			if len(req.Args) != 0 {
				req.usage(errOut)
				return ExitUsage
			}
			return runDynamicBench(env, req.Bench, req.Checker, req.Seed, out, errOut)
		}
		if len(req.Args) != 1 {
			req.usage(errOut)
			return ExitUsage
		}
		src, err := req.readSource(0)
		if err != nil {
			fmt.Fprintln(errOut, "racecheck:", err)
			return ExitFailure
		}
		name := strings.TrimSuffix(filepath.Base(req.Args[0]), filepath.Ext(req.Args[0]))
		sp := req.Tracer.Start("analyze")
		prog, err := env.loadProgram(name, string(src), core.LoadOptions{})
		sp.End()
		if err != nil {
			fmt.Fprintln(errOut, "racecheck:", err)
			return ExitFailure
		}
		sp = req.Tracer.Start("dynamic-check")
		defer sp.End()
		return runDynamic(name, prog, oskit.NewWorld(req.Seed), req.Seed, req.Checker, out, errOut)
	}

	config := req.config()
	opts, okConfig := config.Options()
	if req.Certify && !okConfig {
		fmt.Fprintf(errOut, "racecheck: unknown -config %q\n", req.Config)
		return ExitUsage
	}

	if req.Bench != "" {
		if !req.Certify || len(req.Args) != 0 || req.Instrumented != "" {
			req.usage(errOut)
			return ExitUsage
		}
		return runBench(env, req.Bench, config, req.CertOut, out, errOut)
	}

	if len(req.Args) != 1 {
		req.usage(errOut)
		return ExitUsage
	}
	src, err := req.readSource(0)
	if err != nil {
		fmt.Fprintln(errOut, "racecheck:", err)
		return ExitFailure
	}
	// The analysis artifact, from the tenant's cache when the Env has
	// one (recomputed at most once per distinct source, over the tenant's
	// summary store); one-shot loads under -incremental get a fresh store.
	o := core.LoadOptions{Workers: req.Parallel, Tracer: req.Tracer}
	var store *summary.Store // the store -summary-stats reports
	switch {
	case env != nil && env.Cache != nil:
		store = env.Store
	case req.Incremental:
		o.Store = summary.NewStore()
		store = o.Store
	}
	sp := req.Tracer.Start("analyze")
	prog, err := env.loadProgram(req.Args[0], string(src), o)
	if err != nil {
		sp.End()
		fmt.Fprintln(errOut, "racecheck:", err)
		return ExitFailure
	}
	rep := prog.Races
	sp.SetAttr("pairs", int64(len(rep.Pairs))).End()
	if req.Pairs {
		sp = req.Tracer.Start("report")
		printPairProvenance(req.Args[0], rep, out)
		sp.End()
		return ExitOK
	}
	if req.MHP {
		sp = req.Tracer.Start("mhp-refine")
		refined := prog.RefinedRaces()
		sp.SetAttr("kept", int64(len(refined.Pairs))).End()
		fmt.Fprintf(out, "%s: %d potential race pairs, MHP kept %d, pruned %d\n",
			req.Args[0], len(rep.Pairs), len(refined.Pairs), len(refined.Pruned))
		pruned := append([]relay.PrunedPair(nil), refined.Pruned...)
		sort.SliceStable(pruned, func(i, j int) bool {
			return pairLess(pruned[i].Pair, pruned[j].Pair)
		})
		for _, pp := range pruned {
			fmt.Fprintf(out, "  pruned: %-13s %s\n", pp.Reason, pairString(pp.Pair))
		}
		rep = refined
	}
	if req.Precision {
		sp = req.Tracer.Start("precision-refine")
		prior := len(rep.Pruned)
		refined := prog.Report(req.MHP, true)
		sp.SetAttr("kept", int64(len(refined.Pairs))).End()
		fmt.Fprintf(out, "%s: precision kept %d, discharged %d\n",
			req.Args[0], len(refined.Pairs), len(refined.Pruned)-prior)
		// RefinePrecision carries prior prunes first, so the tail is ours.
		pruned := append([]relay.PrunedPair(nil), refined.Pruned[prior:]...)
		sort.SliceStable(pruned, func(i, j int) bool {
			return pairLess(pruned[i].Pair, pruned[j].Pair)
		})
		for _, pp := range pruned {
			fmt.Fprintf(out, "  discharged: %-9s %s\n", pp.Reason, pairString(pp.Pair))
		}
		rep = refined
	}

	sp = req.Tracer.Start("report")
	fmt.Fprintf(out, "%s: %d potential race pairs, %d racy nodes, %d racy functions\n",
		req.Args[0], len(rep.Pairs), len(rep.RacyNodes), len(rep.RacyFuncs))

	pairsByFn := make(map[string]int)
	for _, p := range rep.Pairs {
		fp := p.FnPair()
		pairsByFn[fp[0]+" <-> "+fp[1]]++
	}
	var keys []string
	for k := range pairsByFn {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(out, "racy function pairs:")
	for _, k := range keys {
		fmt.Fprintf(out, "  %-40s %d race pair(s)\n", k, pairsByFn[k])
	}

	if req.Verbose {
		pairs := append([]*relay.RacePair(nil), rep.Pairs...)
		sort.SliceStable(pairs, func(i, j int) bool { return pairLess(pairs[i], pairs[j]) })
		fmt.Fprintln(out, "race pairs:")
		for _, p := range pairs {
			fmt.Fprintf(out, "  %s\n", pairString(p))
		}
	}

	if req.ShowCFG {
		var names []string
		for fn := range rep.RacyFuncs {
			names = append(names, fn.Name)
		}
		sort.Strings(names)
		for _, name := range names {
			fn := prog.Info.Funcs[name]
			g := cfg.Build(fn.Decl)
			fmt.Fprint(out, g.String())
			loops := g.NaturalLoops()
			fmt.Fprintf(out, "  %d natural loop(s)\n", len(loops))
		}
	}

	if incStats := prog.Incremental; req.SummaryStats && incStats != nil {
		fmt.Fprintf(out, "incremental: %d function(s), %d reused, %d recomputed, %d dirty SCC(s), %d unkeyable\n",
			incStats.TotalFuncs, incStats.ReusedFuncs, incStats.RecomputedFuncs,
			incStats.DirtySCCs, len(incStats.Unkeyable))
		printSummaryStats(nil, store, out)
	}
	sp.End() // report

	if !req.Certify {
		return ExitOK
	}

	// Certification: validate the instrumented output (either freshly
	// produced here, or a pre-instrumented file given explicitly)
	// against the report computed above.
	name := strings.TrimSuffix(filepath.Base(req.Args[0]), filepath.Ext(req.Args[0]))
	var instSrc string
	if req.Instrumented != "" {
		b, err := os.ReadFile(req.Instrumented)
		if err != nil {
			fmt.Fprintln(errOut, "racecheck:", err)
			return ExitFailure
		}
		instSrc = string(b)
	} else {
		sp = req.Tracer.Start("instrument")
		res, err := instrument.Instrument(rep, nil, opts)
		sp.End()
		if err != nil {
			fmt.Fprintln(errOut, "racecheck: instrument:", err)
			return ExitFailure
		}
		instSrc = res.Source
	}
	sp = req.Tracer.Start("certify")
	cert, err := certify.Certify(rep, instSrc, name, config.String())
	sp.End()
	if err != nil {
		fmt.Fprintln(errOut, "racecheck: certify:", err)
		return ExitFailure
	}
	return reportCert(cert, req.CertOut, out, errOut)
}

// runBatch analyzes every *.mc file under dir (sorted by name) through
// one incremental cache sharing a single summary store, so functions
// repeated across the corpus — identical files, shared library code,
// copies with local edits — are summarized once and reused. Per file it
// prints the race-pair count and how much of the RELAY walk was reused.
func runBatch(dir string, workers int, useMHP, showStats bool, out, errOut io.Writer) int {
	// An unusable corpus directory is its own failure class (ExitCorpus),
	// distinct from per-file analysis failures (ExitFailure) and usage
	// errors (ExitUsage), so scripts can tell "the corpus is missing"
	// from "the corpus has a broken file".
	info, err := os.Stat(dir)
	switch {
	case err != nil:
		fmt.Fprintf(errOut, "racecheck: -batch directory %s does not exist: %v\n", dir, err)
		return ExitCorpus
	case !info.IsDir():
		fmt.Fprintf(errOut, "racecheck: -batch target %s is not a directory\n", dir)
		return ExitCorpus
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.mc"))
	if err != nil {
		fmt.Fprintln(errOut, "racecheck:", err)
		return ExitUsage
	}
	if len(paths) == 0 {
		fmt.Fprintf(errOut, "racecheck: -batch directory %s contains no *.mc files\n", dir)
		return ExitCorpus
	}
	sort.Strings(paths)

	store := summary.NewStore()
	cache := core.NewCache(store)
	status := ExitOK
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(errOut, "racecheck:", err)
			return ExitFailure
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		prog, err := cache.Load(name, string(src), workers, nil)
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: %s: %v\n", path, err)
			status = ExitFailure
			continue
		}
		rep := prog.Report(useMHP, false)
		line := fmt.Sprintf("%s: %d race pair(s)", path, len(rep.Pairs))
		if st := prog.Incremental; st != nil {
			line += fmt.Sprintf(" [summaries: %d/%d reused]", st.ReusedFuncs, st.TotalFuncs)
		}
		fmt.Fprintln(out, line)
	}
	if showStats {
		printSummaryStats(cache, store, out)
	}
	return status
}

// printSummaryStats prints the whole-program cache outcomes (when a
// cache was involved) and the summary store's counters.
func printSummaryStats(cache *core.Cache, store *summary.Store, out io.Writer) {
	if cache != nil {
		hits, partial, misses := cache.Stats()
		fmt.Fprintf(out, "cache: %d whole-program hit(s), %d partial hit(s), %d miss(es)\n",
			hits, partial, misses)
	}
	st := store.Stats()
	fmt.Fprintf(out, "summary store: %d hit(s), %d miss(es), %d put(s), %d eviction(s), %d entries\n",
		st.Hits, st.Misses, st.Puts, st.Evictions, st.Entries)
	fmt.Fprintf(out, "mhp facts: %d hit(s), %d miss(es)\n", st.MHPHits, st.MHPMisses)
}

// runObserved runs the fully observed pipeline (analyze → … → record →
// replay → dynamic check) for one benchmark or source file and writes the
// Perfetto trace and/or the metrics report. Output files are created
// before any work runs, and an unwritable path is its own failure class
// (ExitArtifact) so scripts can tell "could not write the artifacts" from
// "the pipeline failed".
func runObserved(req *Request, out, errOut io.Writer) int {
	checker, seed, config := req.Checker, req.Seed, req.config()
	if checker != "epoch" && checker != "vector" {
		fmt.Fprintf(errOut, "racecheck: -trace/-metrics support -checker epoch or vector, not %q\n", checker)
		return ExitUsage
	}
	if _, ok := config.Options(); !ok {
		fmt.Fprintf(errOut, "racecheck: unknown -config %q\n", req.Config)
		return ExitUsage
	}

	var target ObserveTarget
	switch {
	case req.Bench == "all":
		fmt.Fprintln(errOut, "racecheck: -trace/-metrics observe a single benchmark, not -bench all")
		return ExitUsage
	case req.Bench != "":
		if len(req.Args) != 0 {
			req.usage(errOut)
			return ExitUsage
		}
		b := bench.ByName(req.Bench)
		if b == nil {
			fmt.Fprintf(errOut, "racecheck: unknown benchmark %q\n", req.Bench)
			return ExitUsage
		}
		target = TargetFor(b)
	default:
		if len(req.Args) != 1 {
			req.usage(errOut)
			return ExitUsage
		}
		src, err := req.readSource(0)
		if err != nil {
			fmt.Fprintln(errOut, "racecheck:", err)
			return ExitFailure
		}
		name := strings.TrimSuffix(filepath.Base(req.Args[0]), filepath.Ext(req.Args[0]))
		target = ObserveTarget{
			Name:         name,
			Source:       string(src),
			ProfileWorld: func(run int) *oskit.World { return oskit.NewWorld(seed + uint64(run)) },
			ProfileRuns:  5,
			EvalWorld:    func(int) *oskit.World { return oskit.NewWorld(seed) },
		}
	}

	// Open every requested artifact up front: a path we cannot write is
	// reported before minutes of pipeline work, with a distinct exit code.
	outputs := make(map[string]*os.File)
	for _, path := range []string{req.TracePath, req.MetricsPath} {
		if path == "" {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: cannot write output artifact: %v\n", err)
			return ExitArtifact
		}
		defer f.Close()
		outputs[path] = f
	}

	obsn, err := Observe(target, ObserveOptions{
		Config:   config.String(),
		Parallel: req.Parallel,
		Seed:     seed,
		Checker:  checker,
	})
	if err != nil {
		fmt.Fprintf(errOut, "racecheck: %s: %v\n", target.Name, err)
		return ExitFailure
	}

	if req.TracePath != "" {
		data, err := obsn.Tracer.Perfetto()
		if err == nil {
			_, err = outputs[req.TracePath].Write(data)
		}
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: write %s: %v\n", req.TracePath, err)
			return ExitArtifact
		}
	}
	if req.MetricsPath != "" {
		data, err := obsn.Report.Marshal()
		if err == nil {
			_, err = outputs[req.MetricsPath].Write(data)
		}
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: write %s: %v\n", req.MetricsPath, err)
			return ExitArtifact
		}
	}

	rpt := obsn.Report
	fmt.Fprintf(out, "%s [%s]: %d stage span(s), %d weak-lock site(s), %d dynamic race(s)\n",
		rpt.Program, rpt.Config, len(rpt.Stages), len(rpt.WeakLocks.Sites), rpt.Checker.Races)
	fmt.Fprintf(out, "  weak-lock acquires %d (order-log acquire entries %d), releases %d, forced %d, timeouts %d\n",
		rpt.WeakLocks.Acquires, rpt.WeakLocks.AcquireOrderEntries,
		rpt.WeakLocks.Releases, rpt.WeakLocks.Forced, rpt.WeakLocks.Timeouts)
	fmt.Fprintf(out, "  log %d bytes (%d input / %d order records), events %d in %d batches\n",
		rpt.Log.TotalBytes, rpt.Log.InputRecords, rpt.Log.OrderRecords,
		rpt.Events.Emitted, rpt.Events.Batches)
	if !obsn.ReplayMatches {
		fmt.Fprintf(errOut, "racecheck: %s: replay did not match the recording\n", target.Name)
		return ExitFailure
	}
	if rpt.WeakLocks.Acquires != rpt.WeakLocks.AcquireOrderEntries {
		fmt.Fprintf(errOut, "racecheck: %s: per-site acquire total %d disagrees with order log %d\n",
			target.Name, rpt.WeakLocks.Acquires, rpt.WeakLocks.AcquireOrderEntries)
		return ExitFailure
	}
	if req.TracePath != "" {
		fmt.Fprintf(out, "  trace written to %s\n", req.TracePath)
	}
	if req.MetricsPath != "" {
		fmt.Fprintf(out, "  metrics written to %s\n", req.MetricsPath)
	}
	return ExitOK
}

// runDynamic executes one program with the selected dynamic race
// checker(s) attached as batched event sinks and prints the verdict.
// With -checker both the epoch checker and the full-vector oracle observe
// one event stream of a single execution and must agree.
func runDynamic(name string, prog *core.Program, world *oskit.World, seed uint64, checker string, out, errOut io.Writer) int {
	var chks []trace.RaceChecker
	switch checker {
	case "epoch":
		chks = []trace.RaceChecker{trace.NewChecker(0)}
	case "vector":
		chks = []trace.RaceChecker{trace.NewVectorChecker(0)}
	case "both":
		chks = []trace.RaceChecker{trace.NewChecker(0), trace.NewVectorChecker(0)}
	default:
		fmt.Fprintf(errOut, "racecheck: unknown -checker %q (want epoch, vector, or both)\n", checker)
		return ExitUsage
	}
	start := time.Now()
	r := core.CheckDynamicRacesWith(prog, nil, core.RunConfig{World: world, Seed: seed}, chks...)
	wall := time.Since(start)
	if r.Err != nil {
		fmt.Fprintf(errOut, "racecheck: %s: run: %v\n", name, r.Err)
		return ExitFailure
	}
	races := chks[0].Races()
	fmt.Fprintf(out, "%s: %d dynamic race(s) (checker=%s, seed=%d, wall=%s)\n",
		name, len(races), checker, seed, wall.Round(time.Microsecond))
	if ec, ok := chks[0].(*trace.EpochChecker); ok {
		fmt.Fprintf(out, "  checker share: %s\n", time.Duration(ec.WallNS()).Round(time.Microsecond))
	}
	for _, rc := range races {
		fmt.Fprintf(out, "  %s\n", rc)
	}
	if checker == "both" {
		if !trace.SameVerdicts(chks[0].Races(), chks[1].Races()) {
			fmt.Fprintf(errOut, "racecheck: %s: epoch and vector checkers diverged:\n  epoch:  %v\n  vector: %v\n",
				name, chks[0].Races(), chks[1].Races())
			return ExitFailure
		}
		fmt.Fprintln(out, "  epoch and full-vector verdicts agree")
	}
	return ExitOK
}

// runDynamicBench runs the dynamic checker over embedded benchmarks'
// original (uninstrumented) programs under their evaluation worlds.
func runDynamicBench(env *Env, name, checker string, seed uint64, out, errOut io.Writer) int {
	var list []*bench.Benchmark
	if name == "all" {
		list = bench.All()
	} else {
		b := bench.ByName(name)
		if b == nil {
			fmt.Fprintf(errOut, "racecheck: unknown benchmark %q\n", name)
			return ExitUsage
		}
		list = []*bench.Benchmark{b}
	}
	status := ExitOK
	for _, b := range list {
		prog, err := env.loadProgram(b.Name, b.FullSource(), core.LoadOptions{})
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: %s: %v\n", b.Name, err)
			return ExitFailure
		}
		if rc := runDynamic(b.Name, prog, b.EvalWorld(4), seed, checker, out, errOut); rc != ExitOK {
			status = rc
		}
	}
	return status
}

// runGen is the one-shot repro path for generated scenarios: parse the
// spec, generate the program, and push it through the complete soundness
// pipeline. On failure it also prints a greedily minimized spec.
func runGen(text string, verbose bool, out, errOut io.Writer) int {
	spec, err := scenario.Parse(text)
	if err != nil {
		fmt.Fprintln(errOut, "racecheck:", err)
		return ExitUsage
	}
	return reportGen(scenario.RunPipeline(spec), spec, verbose, out, errOut)
}

// reportGen prints a pipeline result exactly as `racecheck -gen` always
// has; gen-pipeline jobs call it with buffers so their stdout/stderr are
// byte-identical to the offline CLI while the structured verdict fields
// come from the same Result.
func reportGen(r *scenario.Result, spec scenario.Spec, verbose bool, out, errOut io.Writer) int {
	if verbose {
		fmt.Fprint(out, r.Source)
	}
	fmt.Fprintf(out, "%s: %d static race pair(s), MHP kept %d, %d weak lock(s), %d dynamic race(s) on the original\n",
		spec, r.StaticPairs, r.KeptPairs, r.WeakLocks, r.OriginalRaces)
	fmt.Fprintf(out, "  stages passed: %s\n", strings.Join(r.Stages, " → "))
	if r.OK() {
		fmt.Fprintln(out, "  soundness pipeline: ok (certified clean, replay bit-identical, checkers agree)")
		return ExitOK
	}
	fmt.Fprintf(errOut, "racecheck: %v\n", r.Err)
	if min := scenario.Minimize(spec); min != spec {
		fmt.Fprintf(errOut, "racecheck: minimized repro: racecheck -gen '%s'\n", min)
	}
	return ExitFailure
}

// runBench certifies embedded benchmarks: the full pipeline (analysis,
// profile, instrumentation) runs per benchmark and the instrumented
// output is certified against the same report it was derived from.
func runBench(env *Env, name string, config core.Config, certOut string, out, errOut io.Writer) int {
	var list []*bench.Benchmark
	if name == "all" {
		list = bench.All()
	} else {
		b := bench.ByName(name)
		if b == nil {
			fmt.Fprintf(errOut, "racecheck: unknown benchmark %q\n", name)
			return ExitUsage
		}
		list = []*bench.Benchmark{b}
	}
	status := ExitOK
	for _, b := range list {
		prog, err := env.loadProgram(b.Name, b.FullSource(), core.LoadOptions{})
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: %s: %v\n", b.Name, err)
			return ExitFailure
		}
		conc := prog.ProfileNonConcurrency(b.ProfileWorld, b.ProfileRuns, 10_000)
		ip, err := prog.InstrumentAs(config, conc, nil)
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: %s: %v\n", b.Name, err)
			return ExitFailure
		}
		cert, _, err := ip.Certify()
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: %s: certify: %v\n", b.Name, err)
			return ExitFailure
		}
		if rc := reportCert(cert, certOut, out, errOut); rc != ExitOK {
			status = rc
		}
	}
	return status
}

// reportCert prints the verdict, optionally writes the JSON certificate,
// and returns the process exit status the certificate warrants.
func reportCert(cert *certify.Certificate, certOut string, out, errOut io.Writer) int {
	fmt.Fprintln(out, cert.Summary())
	data, err := certify.Render(cert)
	if err != nil {
		fmt.Fprintln(errOut, "racecheck: render certificate:", err)
		return ExitFailure
	}
	if certOut != "" {
		if err := os.MkdirAll(certOut, 0o755); err != nil {
			fmt.Fprintln(errOut, "racecheck:", err)
			return ExitFailure
		}
		fname := fmt.Sprintf("%s_%s.cert.json", cert.Program, strings.ReplaceAll(cert.Config, "+", "_"))
		if err := os.WriteFile(filepath.Join(certOut, fname), data, 0o644); err != nil {
			fmt.Fprintln(errOut, "racecheck:", err)
			return ExitFailure
		}
	}
	if !cert.OK {
		fmt.Fprint(errOut, string(data))
		return ExitFailure
	}
	return ExitOK
}

// printPairProvenance runs the full refinement chain — MHP, then the
// precision layer — over the raw RELAY report and prints one row per
// reported pair with its final disposition: pruned-by-mhp (with the MHP
// sub-reason), pruned-by-escape, pruned-by-mustlock, pruned-by-readonly,
// or instrumented. Rows are sorted by source position, then function
// pair, so the table is byte-stable and diffable across runs.
func printPairProvenance(path string, rep *relay.Report, out io.Writer) {
	refined := escape.Refine(mhp.Refine(rep))
	disposition := make(map[[2]ast.NodeID]string, len(refined.Pruned))
	counts := make(map[string]int, 5)
	for _, pp := range refined.Pruned {
		var label string
		switch pp.Reason {
		case "pre-fork", "join-ordered", "barrier-phase":
			label = "pruned-by-mhp(" + pp.Reason + ")"
			counts["pruned-by-mhp"]++
		case "escape":
			label = "pruned-by-escape"
			counts[label]++
		case "must-lock":
			label = "pruned-by-mustlock"
			counts[label]++
		case "read-only":
			label = "pruned-by-readonly"
			counts[label]++
		default:
			label = "pruned-by-" + pp.Reason
			counts[label]++
		}
		disposition[pp.Pair.Key()] = label
	}
	fmt.Fprintf(out, "%s: %d reported = %d pruned-by-mhp + %d pruned-by-escape + %d pruned-by-mustlock + %d pruned-by-readonly + %d instrumented\n",
		path, len(rep.Pairs),
		counts["pruned-by-mhp"], counts["pruned-by-escape"],
		counts["pruned-by-mustlock"], counts["pruned-by-readonly"],
		len(refined.Pairs))
	pairs := append([]*relay.RacePair(nil), rep.Pairs...)
	sort.SliceStable(pairs, func(i, j int) bool { return pairLess(pairs[i], pairs[j]) })
	for _, p := range pairs {
		label, ok := disposition[p.Key()]
		if !ok {
			label = "instrumented"
		}
		fmt.Fprintf(out, "  %-26s %s\n", label, pairString(p))
	}
}

func pairString(p *relay.RacePair) string {
	return fmt.Sprintf("%s:%s [w=%v ls=%v] <-> %s:%s [w=%v ls=%v]",
		p.A.Fn.Name, p.A.Pos, p.A.Write, p.A.Lockset,
		p.B.Fn.Name, p.B.Pos, p.B.Write, p.B.Lockset)
}

// pairLess orders race pairs by source position, then function names.
func pairLess(a, b *relay.RacePair) bool {
	ka := [4]int{a.A.Pos.Line, a.A.Pos.Col, a.B.Pos.Line, a.B.Pos.Col}
	kb := [4]int{b.A.Pos.Line, b.A.Pos.Col, b.B.Pos.Line, b.B.Pos.Col}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	fa, fb := a.FnPair(), b.FnPair()
	if fa[0] != fb[0] {
		return fa[0] < fb[0]
	}
	return fa[1] < fb[1]
}
