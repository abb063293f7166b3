package harness

import (
	"encoding/json"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/instrument"
)

// allConfigNames is the union of the Figure 5 and MHP configuration sets,
// deduplicated, in canonical order.
func allConfigNames() []string {
	var out []string
	seen := make(map[string]bool)
	for _, cn := range append(append([]string{}, ConfigNames...), MHPConfigNames...) {
		if !seen[cn] {
			seen[cn] = true
			out = append(out, cn)
		}
	}
	return out
}

// The analysis pipeline must be a pure function of the source, independent
// of how many workers computed it. For every benchmark, the RELAY report,
// the MHP refinement (kept and pruned pairs with provenance), and the
// instrumented source (the weak-lock assignment) must be byte-identical
// between a sequential (-parallel 1) and a parallel (-parallel 8) run.
func TestAnalysisDeterministicUnderParallelism(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			seq, err := core.Load(b.Name, b.FullSource())
			if err != nil {
				t.Fatal(err)
			}
			par, err := core.LoadWith(b.Name, b.FullSource(), core.LoadOptions{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}

			if got, want := par.Races.Render(), seq.Races.Render(); got != want {
				t.Errorf("RELAY report differs between workers=8 and workers=1:\n--- parallel ---\n%s\n--- sequential ---\n%s", got, want)
			}
			if got, want := par.RefineMHP().Render(), seq.RefineMHP().Render(); got != want {
				t.Errorf("MHP-refined report differs between workers=8 and workers=1:\n--- parallel ---\n%s\n--- sequential ---\n%s", got, want)
			}

			// One shared profile isolates the comparison to the analysis:
			// both instrumentations see identical concurrency evidence.
			conc := seq.ProfileNonConcurrency(b.ProfileWorld, b.ProfileRuns, 10_000)
			for _, cn := range allConfigNames() {
				var srcs [2]string
				var locks [2]int
				c, _ := core.ParseConfig(cn)
				opts, _ := c.Options()
				for i, p := range []*core.Program{seq, par} {
					res, err := instrument.Instrument(p.Report(c.MHP, c.Precision), conc, opts)
					if err != nil {
						t.Fatalf("%s: %v", cn, err)
					}
					srcs[i] = res.Source
					locks[i] = res.Table.Len()
				}
				if locks[0] != locks[1] {
					t.Errorf("%s: weak-lock count differs: sequential %d, parallel %d", cn, locks[0], locks[1])
				}
				if srcs[0] != srcs[1] {
					t.Errorf("%s: instrumented source differs between workers=8 and workers=1:\n--- parallel ---\n%s\n--- sequential ---\n%s", cn, srcs[1], srcs[0])
				}
			}
		})
	}
}

// A parallel suite must emit the same machine-readable rows as a
// sequential one: same values, same canonical (bench, config) order. Two
// benchmarks keep the runtime in check; the per-benchmark analysis
// equality above covers all nine.
func TestSuiteDeterministicUnderParallelism(t *testing.T) {
	names := []string{bench.All()[0].Name, bench.All()[1].Name}

	seqCfg := Default()
	seqCfg.NoCache = true
	seq, err := NewSuite(seqCfg, names...)
	if err != nil {
		t.Fatal(err)
	}
	seqEntries, err := seq.MeasureJSON(MHPConfigNames)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := Default()
	parCfg.Parallel = 4
	par, err := NewSuite(parCfg, names...)
	if err != nil {
		t.Fatal(err)
	}
	parEntries, err := par.MeasureJSON(MHPConfigNames)
	if err != nil {
		t.Fatal(err)
	}

	if len(seqEntries) != len(parEntries) {
		t.Fatalf("row count differs: sequential %d, parallel %d", len(seqEntries), len(parEntries))
	}
	for i := range seqEntries {
		a, b := entryJSON(t, seqEntries[i]), entryJSON(t, parEntries[i])
		if a != b {
			t.Errorf("row %d differs:\nsequential: %s\nparallel:   %s", i, a, b)
		}
	}
}

// entryJSON renders one row with its wall-clock fields (timings, not
// analysis results) zeroed, for byte comparison. The Metrics block is a
// pointer, so rows are compared by rendered value, not identity.
func entryJSON(t *testing.T, e JSONEntry) string {
	t.Helper()
	e.AnalysisWallNS = 0
	e.CertifyWallNS = 0
	e.RecordWallNS = 0
	e.ReplayWallNS = 0
	e.CheckerWallNS = 0
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
