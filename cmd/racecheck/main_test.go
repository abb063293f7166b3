package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
)

// update regenerates the golden files:
// go test ./cmd/racecheck -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

func runGolden(t *testing.T, args []string, golden string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
	}
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
	}
}

// The report must be byte-stable across runs (map iteration must never
// leak into the output) and match the checked-in golden files.
func TestGoldenOutput(t *testing.T) {
	src := filepath.Join("testdata", "barrier.mc")
	for i := 0; i < 3; i++ {
		runGolden(t, []string{"-v", src}, "barrier.out")
		runGolden(t, []string{"-v", "-mhp", src}, "barrier.mhp.out")
	}
}

// The -pairs provenance table and the -precision report must be
// byte-stable across runs and pin every disposition the refinement
// chain can assign: pruned-by-mhp (with sub-reason), pruned-by-escape,
// pruned-by-mustlock, and instrumented.
func TestGoldenPrecision(t *testing.T) {
	src := filepath.Join("testdata", "precision.mc")
	barrier := filepath.Join("testdata", "barrier.mc")
	for i := 0; i < 3; i++ {
		runGolden(t, []string{"-pairs", src}, "precision.pairs.out")
		runGolden(t, []string{"-pairs", barrier}, "barrier.pairs.out")
		runGolden(t, []string{"-precision", src}, "precision.out")
		runGolden(t, []string{"-mhp", "-precision", src}, "precision.mhp.out")
	}
}

// A clean program certifies: -certify must exit 0 and, with -certout,
// leave the JSON certificate on disk.
func TestCertifyCleanExitsZero(t *testing.T) {
	orig := filepath.Join("..", "..", "internal", "certify", "testdata", "negative", "orig.mc")
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	args := []string{"-certify", "-config", "instr", "-certout", dir, orig}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "orig_instr.cert.json")); err != nil {
		t.Errorf("certificate not written: %v", err)
	}
}

// Each hand-broken instrumented fixture must drive the exit status
// nonzero through the -instrumented translation-validation path, with the
// failing certificate dumped to stderr.
func TestCertifyNegativesExitNonzero(t *testing.T) {
	negDir := filepath.Join("..", "..", "internal", "certify", "testdata", "negative")
	orig := filepath.Join(negDir, "orig.mc")
	for _, broken := range []string{"broken_release.mc", "broken_uncovered.mc", "broken_order.mc"} {
		broken := broken
		t.Run(broken, func(t *testing.T) {
			var out, errOut bytes.Buffer
			args := []string{"-certify", "-config", "instr", "-instrumented", filepath.Join(negDir, broken), orig}
			if code := run(args, &out, &errOut); code != 1 {
				t.Fatalf("run(%v) = %d, want 1; stderr: %s", args, code, errOut.String())
			}
			if !bytes.Contains(errOut.Bytes(), []byte(`"ok": false`)) {
				t.Errorf("stderr does not carry the failing certificate:\n%s", errOut.String())
			}
		})
	}
}

// The -bench path exercises the full pipeline (profile + instrumentation)
// for an embedded benchmark and must certify clean.
func TestCertifyBench(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	args := []string{"-certify", "-bench", "aget", "-mhp", "-certout", dir}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "aget_all_mhp.cert.json")); err != nil {
		t.Errorf("certificate not written: %v", err)
	}
}

// The parallel analysis schedule must reproduce the sequential golden
// files byte-for-byte: -parallel N is an implementation detail, never an
// output change.
func TestGoldenOutputParallel(t *testing.T) {
	if *update {
		t.Skip("golden files are regenerated by the sequential test")
	}
	src := filepath.Join("testdata", "barrier.mc")
	for i := 0; i < 3; i++ {
		runGolden(t, []string{"-v", "-parallel", "4", src}, "barrier.out")
		runGolden(t, []string{"-v", "-mhp", "-parallel", "4", src}, "barrier.mhp.out")
	}
}

// The -dynamic path runs the program with the event-sink checkers
// attached; -checker both must report agreement between the epoch checker
// and the full-vector oracle. Wall times vary, so only the verdict lines
// are asserted.
func TestDynamicBench(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-dynamic", "-checker", "both", "-bench", "aget"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("dynamic race(s) (checker=both")) {
		t.Errorf("missing verdict line:\n%s", out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("epoch and full-vector verdicts agree")) {
		t.Errorf("missing agreement line:\n%s", out.String())
	}
}

// An unknown -checker name is a usage error.
func TestDynamicUnknownChecker(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-dynamic", "-checker", "bogus", "-bench", "aget"}
	if code := run(args, &out, &errOut); code != 2 {
		t.Fatalf("run(%v) = %d, want 2; stderr: %s", args, code, errOut.String())
	}
}

// -trace/-metrics ride on the observed -dynamic pipeline; without it they
// are a usage error.
func TestTraceRequiresDynamic(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-bench", "aget", "-trace", "x.json"}
	if code := run(args, &out, &errOut); code != 2 {
		t.Fatalf("run(%v) = %d, want 2; stderr: %s", args, code, errOut.String())
	}
	if !bytes.Contains(errOut.Bytes(), []byte("require -dynamic")) {
		t.Errorf("missing usage message:\n%s", errOut.String())
	}
}

// An unwritable artifact path must fail fast — before any pipeline work —
// with the distinct artifact exit code (3) and a clear message, so
// scripts can tell "could not write the outputs" from "found races".
func TestUnwritableArtifactExitsThree(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	for _, flagName := range []string{"-trace", "-metrics"} {
		var out, errOut bytes.Buffer
		args := []string{"-dynamic", "-bench", "aget", flagName, bad}
		if code := run(args, &out, &errOut); code != 3 {
			t.Fatalf("run(%v) = %d, want 3; stderr: %s", args, code, errOut.String())
		}
		if !bytes.Contains(errOut.Bytes(), []byte("cannot write output artifact")) {
			t.Errorf("%s: missing artifact error:\n%s", flagName, errOut.String())
		}
	}
}

// The full observed run: one command produces a Perfetto-loadable trace
// covering every pipeline stage and a metrics report whose weak-lock
// totals obey the order-log accounting invariant.
func TestTraceAndMetricsArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	var out, errOut bytes.Buffer
	args := []string{"-dynamic", "-bench", "aget", "-trace", tracePath, "-metrics", metricsPath}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
	}

	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	got := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		got[ev.Name] = true
	}
	for _, stage := range []string{
		"pipeline", "analyze", "lex-parse", "typecheck", "compile",
		"points-to", "callgraph", "relay", "mhp-refine", "profile",
		"instrument", "locate", "clique-func-locks", "site-locks", "rewrite",
		"certify", "record", "replay", "dynamic-check",
	} {
		if !got[stage] {
			t.Errorf("trace missing stage %q", stage)
		}
	}

	metricsData, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rpt obs.Report
	if err := json.Unmarshal(metricsData, &rpt); err != nil {
		t.Fatalf("metrics report is not valid JSON: %v", err)
	}
	if rpt.Schema != obs.Schema {
		t.Errorf("schema = %d, want %d", rpt.Schema, obs.Schema)
	}
	wl := rpt.WeakLocks
	if wl == nil || len(wl.Sites) == 0 {
		t.Fatalf("metrics report has no weak-lock sites")
	}
	if wl.Acquires <= 0 || wl.Acquires != wl.AcquireOrderEntries {
		t.Errorf("acquires %d vs order-log acquire entries %d", wl.Acquires, wl.AcquireOrderEntries)
	}
	if wl.Acquires+wl.Releases+wl.Forced != wl.OrderLogEntries {
		t.Errorf("acquires %d + releases %d + forced %d != order-log entries %d",
			wl.Acquires, wl.Releases, wl.Forced, wl.OrderLogEntries)
	}
	if rpt.Log == nil || rpt.Log.TotalBytes != rpt.Log.InputBytes+rpt.Log.OrderBytes+21 {
		t.Errorf("log stream bytes inconsistent: %+v", rpt.Log)
	}
}

// An unknown instrumentation config is a usage error on every path that
// takes one, with the same diagnostic; a refinement suffix inside -config
// is unknown too, since -mhp and -precision name those. A record job
// names its config the same way and fails validation.
func TestUnknownConfigDiagnostics(t *testing.T) {
	prog := filepath.Join("testdata", "barrier.mc")
	metrics := filepath.Join(t.TempDir(), "m.json")
	for _, tc := range []struct {
		args   []string
		config string
	}{
		{[]string{"-certify", "-config", "bogus", prog}, "bogus"},
		{[]string{"-certify", "-config", "all+mhp", prog}, "all+mhp"},
		{[]string{"-certify", "-bench", "aget", "-config", "bogus"}, "bogus"},
		{[]string{"-dynamic", "-bench", "water", "-metrics", metrics, "-config", "bogus"}, "bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != service.ExitUsage {
			t.Errorf("run(%v) = %d, want %d", tc.args, code, service.ExitUsage)
		}
		if want := "racecheck: unknown -config \"" + tc.config + "\"\n"; errOut.String() != want || out.Len() != 0 {
			t.Errorf("run(%v): stdout %q, stderr %q; want only stderr %q", tc.args, out.String(), errOut.String(), want)
		}
	}
	job := &service.JobSpec{Kind: service.JobRecord, Source: "int main() { return 0; }", Config: "bogus"}
	if err := job.Validate(); err == nil || err.Error() != `record job: unknown config "bogus"` {
		t.Errorf("record job with config bogus: Validate() = %v", err)
	}
}

// -precision applies to the observed pipeline as to -certify: the
// metrics report is labelled all+precision and counts the weak-lock sites
// of the precision-refined report (2 on aget, where plain all has 5).
func TestObservedHonorsPrecision(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	var out, errOut bytes.Buffer
	args := []string{"-dynamic", "-bench", "aget", "-precision", "-metrics", metricsPath}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rpt obs.Report
	if err := json.Unmarshal(data, &rpt); err != nil {
		t.Fatal(err)
	}
	if rpt.Config != "all+precision" {
		t.Errorf("report config %q, want all+precision", rpt.Config)
	}
	if rpt.WeakLocks == nil || len(rpt.WeakLocks.Sites) != 2 {
		t.Errorf("report weak-lock sites %+v, want 2", rpt.WeakLocks)
	}
}
