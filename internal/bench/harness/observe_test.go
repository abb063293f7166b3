package harness

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/service"
)

// maskedReport runs one observed pipeline (service.Observe, which runs
// the same core.RecordAndCheck stage as a harness cell) and returns its
// metrics report with every wall-clock field zeroed, rendered
// canonically. Each run gets a fresh cache (the ObserveOptions default),
// so the cache section is pinned at {0 hits, 1 miss} and the whole
// document is deterministic.
func maskedReport(t *testing.T, name string, parallel int) string {
	t.Helper()
	o, err := service.Observe(service.TargetFor(bench.ByName(name)), service.ObserveOptions{Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	if !o.ReplayMatches {
		t.Fatalf("%s: replay diverged from recording", name)
	}
	if o.Cert == nil || !o.Cert.OK {
		t.Fatalf("%s: instrumented output failed certification", name)
	}
	o.Report.MaskWall()
	b, err := o.Report.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The metrics report — stages, per-site weak-lock counters, event stream,
// log streams, cache, checker — must be a pure function of (program,
// config, seeds) once wall time is masked: byte-identical between a
// sequential and a parallel analysis, and across repeated runs. This is
// the observability layer's version of the analysis determinism guard.
func TestObservedReportDeterministic(t *testing.T) {
	benches := bench.All()
	if testing.Short() {
		benches = benches[:2]
	}
	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			seq := maskedReport(t, b.Name, 1)
			par := maskedReport(t, b.Name, 8)
			if seq != par {
				t.Errorf("masked report differs between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
			}
			again := maskedReport(t, b.Name, 1)
			if seq != again {
				t.Errorf("masked report differs across repeated runs:\n--- first ---\n%s\n--- second ---\n%s", seq, again)
			}
		})
	}
}
