package scenario

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/oskit"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Config is the instrumentation configuration the soundness pipeline
// certifies: the full optimization set over the MHP-refined report —
// the flagship "all+mhp" cell of the benchmark harness. Stage 10 adds
// the precision layer to it.
var Config = core.Config{Base: "all", MHP: true}

// Result is the outcome of pushing one generated program through the
// full soundness pipeline. On failure, FailStage names the first stage
// that diverged and Err carries the detail; Spec (possibly minimized by
// the caller) is the complete repro.
type Result struct {
	Spec   Spec
	Source string

	// Stages lists the pipeline stages that passed, in order.
	Stages []string

	// Static-analysis volume of the generated program.
	StaticPairs int // RELAY race pairs before refinement
	KeptPairs   int // pairs surviving the MHP refinement
	WeakLocks   int // weak-lock table entries after instrumentation

	// Precision-layer volume (stage 10).
	PrecisionKept   int // pairs surviving MHP + the precision layer
	PrecisionPruned int // pairs the precision layer discharged beyond MHP

	// OriginalRaces is the agreed epoch∧vector dynamic race count on the
	// original (uninstrumented) program's differential run.
	OriginalRaces int

	FailStage string
	Err       error
}

// OK reports whether every stage passed.
func (r *Result) OK() bool { return r.Err == nil }

// StagePassed reports whether the named pipeline stage completed. The
// service layer maps stages to its verdict fields (certify → certified,
// replay → replay_matches, differential+clean → checkers_agree).
func (r *Result) StagePassed(name string) bool {
	for _, s := range r.Stages {
		if s == name {
			return true
		}
	}
	return false
}

func (r *Result) fail(stage string, err error) *Result {
	r.FailStage = stage
	r.Err = fmt.Errorf("scenario: %s: stage %s: %w (repro: racecheck -gen '%s')", r.Spec.Name(), stage, err, r.Spec)
	return r
}

func (r *Result) pass(stage string) { r.Stages = append(r.Stages, stage) }

// recSeed/repSeed derive the record and replay schedule seeds from the
// spec seed. They must differ: replay determinism has to come from the
// log, not from a shared seed.
func (s Spec) recSeed() uint64 { return s.Seed*2654435761 + 1 }
func (s Spec) repSeed() uint64 { return s.Seed*0x9e3779b97f4a7c15 + 99991 }

// world builds the input world a generated program runs against. The
// world is a pure function of the spec, so every pipeline stage sees
// the same nondeterminism source.
func (s Spec) world() *oskit.World { return oskit.NewWorld(s.Seed ^ 0x5eed5eed5eed5eed) }

// RunPipeline pushes one generated program through every soundness
// obligation the system ships:
//
//  1. generate     spec → source (validated, deterministic)
//  2. analyze      lex/parse/typecheck/points-to/callgraph/RELAY
//  3. incremental  summary-store analysis, byte-identical to fresh,
//     full reuse on a store primed with the same program
//  4. instrument   weak-lock transformation over the MHP-refined report
//  5. certify      static DRF + deadlock-freedom certificate must be clean
//  6. record       instrumented run under the record seed
//  7. replay       under a different seed; result must bit-match
//  8. differential epoch vs full-vector verdicts on the original
//     program's event stream must be identical
//  9. clean        both checkers on the replay's event stream must
//     agree on zero races under the extended sync set
//  10. precision   the precision-refined report (internal/escape over
//     MHP) partitions the pair set, certifies clean including the
//     discharge check, records, replays bit-identically under a
//     different seed, shows zero agreed checker races, and replays
//     byte-identically from stored facts on a warm reload
//
// Any divergence fails with the stage name and a reproducible spec.
func RunPipeline(spec Spec) *Result {
	res := &Result{Spec: spec}

	src, err := Generate(spec)
	if err != nil {
		return res.fail("generate", err)
	}
	res.Source = src
	res.pass("generate")

	name := spec.Name()
	fresh, err := core.Load(name, src)
	if err != nil {
		return res.fail("analyze", err)
	}
	res.StaticPairs = len(fresh.Races.Pairs)
	res.pass("analyze")

	// Incremental equivalence: a cold store (every function recomputed
	// through the summary codec) and a primed store (every function
	// reused) must both render byte-identically to the fresh analysis.
	store := summary.NewStore()
	cold, err := core.LoadWith(name, src, core.LoadOptions{Store: store})
	if err != nil {
		return res.fail("incremental", err)
	}
	warm, err := core.LoadWith(name, src, core.LoadOptions{Store: store})
	if err != nil {
		return res.fail("incremental", err)
	}
	if got, want := cold.Races.Render(), fresh.Races.Render(); got != want {
		return res.fail("incremental", fmt.Errorf("cold incremental report diverged from fresh\n--- incremental ---\n%s--- fresh ---\n%s", got, want))
	}
	if got, want := warm.Races.Render(), fresh.Races.Render(); got != want {
		return res.fail("incremental", fmt.Errorf("warm incremental report diverged from fresh\n--- incremental ---\n%s--- fresh ---\n%s", got, want))
	}
	if st := warm.Incremental; st == nil || st.ReusedFuncs != st.TotalFuncs {
		return res.fail("incremental", fmt.Errorf("warm reload of an identical program reused %v of %v summaries", statField(warm, true), statField(warm, false)))
	}
	if got, want := warm.RefinedRaces().Render(), fresh.RefinedRaces().Render(); got != want {
		return res.fail("incremental", fmt.Errorf("warm refined report diverged from fresh\n--- incremental ---\n%s--- fresh ---\n%s", got, want))
	}
	res.pass("incremental")

	ip, err := fresh.InstrumentAs(Config, nil, nil)
	if err != nil {
		return res.fail("instrument", err)
	}
	res.KeptPairs = len(ip.Rep.Pairs)
	res.WeakLocks = ip.Table.Len()
	res.pass("instrument")

	cert, _, err := ip.Certify()
	if err != nil {
		return res.fail("certify", err)
	}
	if !cert.OK {
		return res.fail("certify", fmt.Errorf("certificate not clean: %s", cert.Summary()))
	}
	res.pass("certify")

	// Record, then replay with both checkers on the replay's event stream;
	// the clean stage below reads their verdicts.
	chk := ip.RecordAndCheck(core.RunConfig{World: spec.world(), Seed: spec.recSeed(), Table: ip.Table}, spec.repSeed(), nil)
	if chk.RecordErr != nil {
		return res.fail("record", chk.RecordErr)
	}
	res.pass("record")

	if err := replayMatch(chk); err != nil {
		return res.fail("replay", err)
	}
	res.pass("replay")

	// Differential dynamic check on the original program: both checkers
	// observe one event stream of a single execution and must agree.
	ep, vc := trace.NewChecker(0), trace.NewVectorChecker(0)
	r := core.CheckDynamicRacesWith(fresh, nil, core.RunConfig{World: spec.world(), Seed: spec.recSeed()}, ep, vc)
	if r.Err != nil {
		return res.fail("differential", r.Err)
	}
	if !trace.SameVerdicts(ep.Races(), vc.Races()) {
		return res.fail("differential", fmt.Errorf("epoch and vector verdicts diverged on the original program\nepoch:  %v\nvector: %v", ep.Races(), vc.Races()))
	}
	res.OriginalRaces = len(trace.VerdictSet(ep.Races()))
	res.pass("differential")

	// The instrumented program must be race-free under the extended
	// synchronization set — by both checkers, in agreement.
	if !chk.Agree {
		return res.fail("clean", fmt.Errorf("epoch and vector verdicts diverged on the instrumented program\nepoch:  %v\nvector: %v", chk.Epoch.Races(), chk.Vector.Races()))
	}
	if n := chk.Epoch.RaceCount(); n != 0 {
		return res.fail("clean", fmt.Errorf("instrumented program raced %d time(s) under the extended sync set: %v", n, chk.Epoch.Races()))
	}
	res.pass("clean")

	// Precision: the precision-refined program re-runs the gauntlet. The
	// refined report must partition the original pair set, earn a clean
	// certificate including the discharge check, record and replay
	// bit-identically, stay race-free under both checkers, and reproduce
	// byte-identically from facts memoized in the summary store.
	pc := Config
	pc.Precision = true
	ipp, err := fresh.InstrumentAs(pc, nil, nil)
	if err != nil {
		return res.fail("precision", err)
	}
	prec := ipp.Rep
	if len(prec.Pairs)+len(prec.Pruned) != res.StaticPairs {
		return res.fail("precision", fmt.Errorf("refined report does not partition the pair set: %d kept + %d pruned != %d static",
			len(prec.Pairs), len(prec.Pruned), res.StaticPairs))
	}
	res.PrecisionKept = len(prec.Pairs)
	res.PrecisionPruned = len(prec.Pruned) - len(ip.Rep.Pruned)
	pcert, _, err := ipp.Certify()
	if err != nil {
		return res.fail("precision", err)
	}
	if !pcert.OK {
		return res.fail("precision", fmt.Errorf("certificate not clean: %s", pcert.Summary()))
	}
	pchk := ipp.RecordAndCheck(core.RunConfig{World: spec.world(), Seed: spec.recSeed(), Table: ipp.Table}, spec.repSeed(), nil)
	if pchk.RecordErr != nil {
		return res.fail("precision", pchk.RecordErr)
	}
	if err := replayMatch(pchk); err != nil {
		return res.fail("precision", err)
	}
	if !pchk.Agree {
		return res.fail("precision", fmt.Errorf("epoch and vector verdicts diverged on the precision-instrumented program\nepoch:  %v\nvector: %v", pchk.Epoch.Races(), pchk.Vector.Races()))
	}
	if n := pchk.Epoch.RaceCount(); n != 0 {
		return res.fail("precision", fmt.Errorf("precision-instrumented program raced %d time(s) under the extended sync set: %v", n, pchk.Epoch.Races()))
	}
	// Store-fact replay: computing precision on the cold load memoizes the
	// verdicts; the warm load must replay them to a byte-identical report.
	if got, want := cold.PrecisionRaces().Render(), prec.Render(); got != want {
		return res.fail("precision", fmt.Errorf("cold precision report diverged from fresh\n--- incremental ---\n%s--- fresh ---\n%s", got, want))
	}
	if got, want := warm.PrecisionRaces().Render(), prec.Render(); got != want {
		return res.fail("precision", fmt.Errorf("warm precision report diverged from fresh\n--- incremental ---\n%s--- fresh ---\n%s", got, want))
	}
	if warm.Incremental == nil || !warm.Incremental.PrecisionFactsReused {
		return res.fail("precision", fmt.Errorf("warm reload did not replay precision facts from the store"))
	}
	res.pass("precision")
	return res
}

// replayMatch is nil when the checked replay completed and bit-matched
// its recording.
func replayMatch(c *core.Checked) error {
	if c.ReplayErr != nil {
		return c.ReplayErr
	}
	if !c.Matches {
		return fmt.Errorf("replay diverged: recorded %x, replayed %x\nrecorded output: %q\nreplayed output: %q",
			c.Record.Hash64(), c.Replay.Hash64(), c.Record.Output, c.Replay.Output)
	}
	return nil
}

func statField(p *core.Program, reused bool) interface{} {
	if p.Incremental == nil {
		return "?"
	}
	if reused {
		return p.Incremental.ReusedFuncs
	}
	return p.Incremental.TotalFuncs
}

// Minimize shrinks a failing spec while RunPipeline keeps failing on the
// same stage: it greedily halves Ops, Shared and Threads toward their
// family minimums and snaps LockDensity to the nearer rail. The result
// is the smallest spec the greedy walk reaches — a cheap repro to hand
// a human, not a guaranteed global minimum.
func Minimize(spec Spec) Spec {
	failStage := func(s Spec) string {
		r := RunPipeline(s)
		if r.Err == nil {
			return ""
		}
		return r.FailStage
	}
	stage := failStage(spec)
	if stage == "" {
		return spec
	}
	minThreads := 1
	if spec.Family == "prodcons" || spec.Family == "pipeline" {
		minThreads = 2
	}
	improved := true
	for improved {
		improved = false
		for _, cand := range []Spec{
			{spec.Family, spec.Seed, spec.Threads, spec.Shared, spec.Ops / 2, spec.LockDensity},
			{spec.Family, spec.Seed, spec.Threads, spec.Shared / 2, spec.Ops, spec.LockDensity},
			{spec.Family, spec.Seed, spec.Threads / 2, spec.Shared, spec.Ops, spec.LockDensity},
			{spec.Family, spec.Seed, spec.Threads, spec.Shared, spec.Ops, railward(spec.LockDensity)},
		} {
			if cand == spec || cand.Threads < minThreads || cand.Validate() != nil {
				continue
			}
			if failStage(cand) == stage {
				spec = cand
				improved = true
				break
			}
		}
	}
	return spec
}

// railward moves a density halfway toward its nearer rail (0 or 100).
func railward(d int) int {
	if d >= 50 {
		return d + (100-d+1)/2
	}
	return d / 2
}

// ToBenchmark adapts a spec to the benchmark harness: the generated
// program plus profile and evaluation worlds derived from the seed. The
// adapter is what lets chimera-bench measure generated workloads with
// the exact Table-2/Figure-5 machinery (and the PR5 metrics block) the
// nine embedded benchmarks use.
func ToBenchmark(spec Spec) (*bench.Benchmark, error) {
	src, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	return &bench.Benchmark{
		Name:   spec.Name(),
		Class:  "scenario",
		Source: src,
		ProfileWorld: func(run int) *oskit.World {
			return oskit.NewWorld(spec.Seed + uint64(run)*1000003 + 7)
		},
		EvalWorld: func(workers int) *oskit.World {
			// Thread structure is baked into the generated source; the
			// harness worker knob does not apply.
			return spec.world()
		},
		ProfileRuns: 4,
		ProfileEnv:  fmt.Sprintf("%d seeded profile worlds", 4),
		EvalEnv:     spec.String(),
	}, nil
}
