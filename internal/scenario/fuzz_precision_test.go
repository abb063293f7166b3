package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/relay"
	"repro/internal/trace"
)

// FuzzPrecisionSoundness differentially fuzzes the static precision
// layer over the scenario corpus: every generated program is instrumented
// twice — from the MHP-refined report and from the precision-refined one
// — and both variants must record and replay bit-identically under
// different schedule seeds, and both must be race-free under the epoch
// and full-vector checkers with identical verdict sets. A pair the
// precision layer wrongly discharged gets no weak lock, which is exactly
// what these obligations detect: the replay diverges or the checkers see
// the unprotected race.
func FuzzPrecisionSoundness(f *testing.F) {
	f.Add("prodcons:1:small")
	f.Add("workpool:7:t3,s4,o16,l35")
	f.Add("pipeline:3:t2,s2,o8,l100")
	f.Add("cache:11:t2,s8,o24,l0")
	f.Add("counters:5:t4,s6,o12,l60")
	f.Add("cache:7:t2,s12,o40,l65")
	f.Add("counters:2:t3,s3,o20,l0")
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := Parse(text)
		if err != nil {
			return // spec-grammar fail-closed behavior is FuzzScenarioSoundness's job
		}
		if spec.Ops > 64 || spec.Threads > 4 || spec.Shared > 16 {
			t.Skip("clamped: size beyond fuzz budget")
		}
		src, err := Generate(spec)
		if err != nil {
			t.Fatalf("generate %q: %v", spec, err)
		}
		prog, err := core.Load(spec.Name(), src)
		if err != nil {
			t.Fatalf("load %q: %v", spec, err)
		}

		variants := []struct {
			name string
			rep  *relay.Report
		}{
			{"mhp", prog.RefinedRaces()},
			{"precision", prog.PrecisionRaces()},
		}
		verdicts := make([][]trace.Race, len(variants))
		for i, v := range variants {
			ip, err := prog.InstrumentWith(v.rep, nil, instrument.AllOptions())
			if err != nil {
				t.Fatalf("%s: instrument: %v", v.name, err)
			}
			recRes, log, _ := ip.RecordTo(core.RunConfig{World: spec.world(), Seed: spec.recSeed(), Table: ip.Table}, nil)
			if recRes.Err != nil {
				t.Fatalf("%s: record: %v (repro: racecheck -gen '%s')", v.name, recRes.Err, spec)
			}
			repRes, err := ip.Replay(log, core.RunConfig{World: spec.world(), Seed: spec.repSeed(), Table: ip.Table})
			if err != nil {
				t.Fatalf("%s: replay: %v (repro: racecheck -gen '%s')", v.name, err, spec)
			}
			if repRes.Hash64() != recRes.Hash64() {
				t.Fatalf("%s: replay diverged: recorded %x, replayed %x (repro: racecheck -gen '%s')",
					v.name, recRes.Hash64(), repRes.Hash64(), spec)
			}
			ep, vc := trace.NewChecker(0), trace.NewVectorChecker(0)
			r := core.CheckDynamicRacesWith(ip.Prog, ip.Table, core.RunConfig{World: spec.world(), Seed: spec.recSeed()}, ep, vc)
			if r.Err != nil {
				t.Fatalf("%s: checker run: %v", v.name, r.Err)
			}
			if !trace.SameVerdicts(ep.Races(), vc.Races()) {
				t.Fatalf("%s: epoch and vector verdicts diverged: %v vs %v (repro: racecheck -gen '%s')",
					v.name, ep.Races(), vc.Races(), spec)
			}
			if n := len(ep.Races()); n != 0 {
				t.Fatalf("%s: instrumented program raced %d time(s) under the extended sync set: %v (repro: racecheck -gen '%s')",
					v.name, n, ep.Races(), spec)
			}
			verdicts[i] = ep.Races()
		}
		if !trace.SameVerdicts(verdicts[0], verdicts[1]) {
			t.Fatalf("checker verdicts differ between mhp and precision variants: %v vs %v (repro: racecheck -gen '%s')",
				verdicts[0], verdicts[1], spec)
		}
	})
}
