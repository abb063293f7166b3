package harness

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/instrument"
)

// The PR's acceptance criterion on the barrier-heavy benchmarks: the MHP
// refinement strictly shrinks both the static race-pair set and the
// emitted weak-lock table, record→replay still bit-matches, and the
// dynamic vector-clock checker observes no race in the refined
// instrumentation — i.e. every pruned pair really was non-concurrent.
func TestMHPRefinementOnBarrierBenches(t *testing.T) {
	for _, name := range []string{"water", "ocean", "fft"} {
		name := name
		t.Run(name, func(t *testing.T) {
			b := bench.ByName(name)
			if b == nil {
				t.Fatalf("unknown benchmark %q", name)
			}
			prog, err := core.Load(b.Name, b.FullSource())
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			ref := prog.RefineMHP()
			if len(ref.Pairs) >= len(prog.Races.Pairs) {
				t.Fatalf("static pairs did not decrease: %d -> %d",
					len(prog.Races.Pairs), len(ref.Pairs))
			}
			if len(ref.Pairs)+len(ref.Pruned) != len(prog.Races.Pairs) {
				t.Fatalf("kept %d + pruned %d != total %d",
					len(ref.Pairs), len(ref.Pruned), len(prog.Races.Pairs))
			}
			t.Logf("%s: %d pairs, MHP kept %d, pruned %d",
				name, len(prog.Races.Pairs), len(ref.Pairs), len(ref.Pruned))

			base, err := prog.Instrument(nil, instrument.NaiveOptions())
			if err != nil {
				t.Fatalf("instrument base: %v", err)
			}
			mhpIP, err := prog.InstrumentWith(ref, nil, instrument.NaiveOptions())
			if err != nil {
				t.Fatalf("instrument mhp: %v", err)
			}
			if mhpIP.Table.Len() >= base.Table.Len() {
				t.Fatalf("weak locks did not decrease: %d -> %d",
					base.Table.Len(), mhpIP.Table.Len())
			}
			t.Logf("%s: weak locks %d -> %d", name, base.Table.Len(), mhpIP.Table.Len())

			// Record under one seed, replay under another: still bit-exact.
			c := mhpIP.RecordAndCheck(core.RunConfig{World: b.ProfileWorld(0), Seed: 1234, Table: mhpIP.Table}, 987654, nil)
			if !c.Matches {
				var replayed []byte
				if c.Replay != nil {
					replayed = c.Replay.Output
				}
				t.Errorf("replay with MHP pruning diverged: record %v, replay %v\nrecorded output: %q\nreplayed output: %q",
					c.RecordErr, c.ReplayErr, c.Record.Output, replayed)
			}

			// The pruning must be sound, not just aggressive: with the
			// pruned pairs uninstrumented, the vector-clock checker must
			// still see no unordered racy pair.
			for seed := uint64(0); seed < 3; seed++ {
				races, r := core.CheckDynamicRaces(mhpIP.Prog, mhpIP.Table, core.RunConfig{
					World: b.ProfileWorld(0), Seed: seed, Table: mhpIP.Table,
				})
				if r.Err != nil {
					t.Fatalf("seed %d: dynamic check run failed: %v", seed, r.Err)
				}
				if len(races) != 0 {
					t.Fatalf("seed %d: MHP-refined instrumentation left a dynamic race: %v",
						seed, races[0])
				}
			}
		})
	}
}

// "+mhp" configurations build on first use like every other and measure
// end to end, replay matching included.
func TestHarnessMHPConfigs(t *testing.T) {
	s, err := NewSuite(Default(), "water")
	if err != nil {
		t.Fatal(err)
	}
	p := s.Items[0]
	for _, cn := range []string{"instr+mhp", "all+mhp"} {
		m, err := s.Measure(p, cn, 2)
		if err != nil {
			t.Fatalf("%s: %v", cn, err)
		}
		if !m.ReplayMatches {
			t.Errorf("%s: replay did not match: %s", cn, m.ReplayErr)
		}
	}
	// The refined instrumentation must be strictly smaller at both levels.
	for _, pair := range [][2]string{{"instr", "instr+mhp"}, {"all", "all+mhp"}} {
		baseIP, err := p.Instrumented(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		mhpIP, err := p.Instrumented(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if mhpIP.Table.Len() >= baseIP.Table.Len() {
			t.Errorf("%s: weak locks %d, want fewer than %s's %d",
				pair[1], mhpIP.Table.Len(), pair[0], baseIP.Table.Len())
		}
	}
}

// A precision suite instruments the precision-refined report under a
// label that does not say so. The certificate is labelled from the
// artifact, so it names the report it was checked against, whichever
// caller certifies first.
func TestCertificateLabelFollowsArtifact(t *testing.T) {
	cfg := Default()
	cfg.Precision = true
	s, err := NewSuite(cfg, "aget")
	if err != nil {
		t.Fatal(err)
	}
	ip, err := s.Items[0].Instrumented("all+mhp")
	if err != nil {
		t.Fatal(err)
	}
	cert, _, err := ip.Certify()
	if err != nil {
		t.Fatal(err)
	}
	if cert.Config != "all+mhp+precision" {
		t.Errorf("certificate label %q, want %q", cert.Config, "all+mhp+precision")
	}
	if !cert.OK {
		t.Errorf("certificate failed: %s", cert.Summary())
	}
}
