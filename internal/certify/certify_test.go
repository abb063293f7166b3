package certify_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/instrument"
	"repro/internal/relay"
)

var update = flag.Bool("update", false, "rewrite golden files")

// prepared caches the expensive per-benchmark pipeline (analysis +
// profile) across the tests in this package.
var (
	prepMu  sync.Mutex
	prepped = map[string]*benchPrep{}
)

type benchPrep struct {
	b    *bench.Benchmark
	prog *core.Program
	inst map[string]*core.Instrumented // by config name
}

func prepare(t *testing.T, name string) *benchPrep {
	t.Helper()
	prepMu.Lock()
	defer prepMu.Unlock()
	if p, ok := prepped[name]; ok {
		return p
	}
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	prog, err := core.Load(b.Name, b.FullSource())
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	p := &benchPrep{b: b, prog: prog, inst: make(map[string]*core.Instrumented)}
	prepped[name] = p
	return p
}

func (p *benchPrep) instrumented(t *testing.T, config string) *core.Instrumented {
	t.Helper()
	prepMu.Lock()
	defer prepMu.Unlock()
	if ip, ok := p.inst[config]; ok {
		return ip
	}
	base, mhp := strings.CutSuffix(config, "+mhp")
	opts, ok := instrument.OptionsFor(base)
	if !ok {
		t.Fatalf("unknown config %q", config)
	}
	conc := p.prog.ProfileNonConcurrency(p.b.ProfileWorld, p.b.ProfileRuns, 10_000)
	ip, err := p.prog.InstrumentWith(p.prog.Report(mhp, false), conc, opts)
	if err != nil {
		t.Fatalf("instrument %s/%s: %v", p.b.Name, config, err)
	}
	p.inst[config] = ip
	return ip
}

// TestBenchmarksCertifyClean is the acceptance gate: every benchmark's
// instrumented output must earn a clean certificate — all race pairs
// covered by a common weak-lock, brackets balanced on every path, and
// no lock-order cycles or discipline violations — under both the naive
// and the fully optimized configuration, with and without MHP
// refinement.
func TestBenchmarksCertifyClean(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p := prepare(t, b.Name)
			for _, config := range []string{"instr", "instr+mhp", "all", "all+mhp"} {
				ip := p.instrumented(t, config)
				cert, err := certify.Certify(ip.Rep, ip.Report.Source, b.Name, config)
				if err != nil {
					t.Fatalf("%s/%s: certify error: %v", b.Name, config, err)
				}
				if !cert.OK {
					out, _ := certify.Render(cert)
					t.Errorf("%s/%s: certificate failed:\n%s", b.Name, config, out)
				}
			}
		})
	}
}

// TestCertificateDeterministic asserts the certificate is a pure
// function of (report, instrumented source): byte-identical between a
// sequential and an 8-worker analysis of the same benchmark.
func TestCertificateDeterministic(t *testing.T) {
	b := bench.ByName("water")
	certs := make([][]byte, 2)
	for i, workers := range []int{1, 8} {
		prog, err := core.LoadWith(b.Name, b.FullSource(), core.LoadOptions{Workers: workers})
		if err != nil {
			t.Fatalf("load (workers=%d): %v", workers, err)
		}
		conc := prog.ProfileNonConcurrency(b.ProfileWorld, b.ProfileRuns, 10_000)
		ip, err := prog.InstrumentWith(prog.RefinedRaces(), conc, instrument.AllOptions())
		if err != nil {
			t.Fatalf("instrument (workers=%d): %v", workers, err)
		}
		cert, _, err := ip.Certify("all+mhp")
		if err != nil {
			t.Fatalf("certify (workers=%d): %v", workers, err)
		}
		out, err := certify.Render(cert)
		if err != nil {
			t.Fatalf("render: %v", err)
		}
		certs[i] = out
	}
	if !bytes.Equal(certs[0], certs[1]) {
		t.Errorf("certificates differ between -parallel 1 and -parallel 8:\n--- 1 ---\n%s--- 8 ---\n%s", certs[0], certs[1])
	}
}

// TestCertificateGolden pins the certificate JSON schema on a small
// benchmark. Regenerate with -update.
func TestCertificateGolden(t *testing.T) {
	p := prepare(t, "aget")
	ip := p.instrumented(t, "all+mhp")
	cert, _, err := ip.Certify("all+mhp")
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	got, err := certify.Render(cert)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	golden := filepath.Join("testdata", "aget_all_mhp.cert.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("certificate differs from golden %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestDischargeFailClosed doctors a precision-refined report by moving a
// pair the precision layer KEPT into Pruned under each discharge reason
// (plus one unknown reason): the discharge check must refuse to re-derive
// every one of them. The genuine precision report certifies clean first
// (the control), so a failure isolates the planted lie.
func TestDischargeFailClosed(t *testing.T) {
	p := prepare(t, "aget")
	prec := escape.Refine(p.prog.Races)
	if len(prec.Pruned) == 0 {
		t.Fatal("fixture drift: precision layer pruned nothing on aget")
	}
	if len(prec.Pairs) == 0 {
		t.Fatal("fixture drift: precision layer kept no pairs on aget")
	}
	conc := p.prog.ProfileNonConcurrency(p.b.ProfileWorld, p.b.ProfileRuns, 10_000)
	ip, err := p.prog.InstrumentWith(prec, conc, instrument.AllOptions())
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	control, err := certify.Certify(prec, ip.Report.Source, "aget", "all+precision")
	if err != nil {
		t.Fatalf("certify control: %v", err)
	}
	if !control.OK || control.Discharge.Verified != control.Discharge.Pruned || control.Discharge.Pruned == 0 {
		out, _ := certify.Render(control)
		t.Fatalf("control: genuine precision report failed certification:\n%s", out)
	}

	for _, tc := range []struct {
		reason string
		diag   string
	}{
		{"escape", "is thread-shared"},
		{"read-only", "written after the first spawn"},
		{"must-lock", "no common grounded lock"},
		{"frobnicate", "unknown prune reason"},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			doctored := *prec
			doctored.Pairs = prec.Pairs[1:]
			doctored.Pruned = append(append([]relay.PrunedPair{}, prec.Pruned...),
				relay.PrunedPair{Pair: prec.Pairs[0], Reason: tc.reason})
			cert, err := certify.Certify(&doctored, ip.Report.Source, "aget", "all+precision")
			if err != nil {
				t.Fatalf("certify: %v", err)
			}
			if cert.OK || cert.Discharge.OK {
				out, _ := certify.Render(cert)
				t.Fatalf("doctored prune (%s) certified clean:\n%s", tc.reason, out)
			}
			found := false
			for _, f := range cert.Discharge.Failures {
				if strings.Contains(f, tc.diag) {
					found = true
				}
			}
			if !found {
				t.Errorf("no discharge failure containing %q; got %q", tc.diag, cert.Discharge.Failures)
			}
		})
	}
}

// loadNegative analyzes the negative-fixture original program; its race
// report is what every broken variant is certified against.
func loadNegative(t *testing.T) *core.Program {
	t.Helper()
	orig, err := os.ReadFile(filepath.Join("testdata", "negative", "orig.mc"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Load("negative", string(orig))
	if err != nil {
		t.Fatalf("load negative fixture: %v", err)
	}
	return prog
}

// TestNegativeFixturesFailClosed feeds hand-broken instrumented programs
// to the certifier: each must fail its targeted check with a
// deterministic diagnostic. The genuine instrumenter output for the same
// program certifies clean (the control), so a failure here isolates the
// hand-planted defect rather than fixture drift.
func TestNegativeFixturesFailClosed(t *testing.T) {
	prog := loadNegative(t)

	ip, err := prog.InstrumentWith(prog.Races, nil, instrument.NaiveOptions())
	if err != nil {
		t.Fatalf("instrument control: %v", err)
	}
	control, _, err := ip.Certify("instr")
	if err != nil {
		t.Fatalf("certify control: %v", err)
	}
	if !control.OK {
		out, _ := certify.Render(control)
		t.Fatalf("control: genuine instrumentation failed certification:\n%s", out)
	}

	cases := []struct {
		file string
		// diag must appear in the targeted check's diagnostics.
		check func(c *certify.Certificate) (ok bool, diags []string)
		diag  string
	}{
		{
			file:  "broken_release.mc",
			check: func(c *certify.Certificate) (bool, []string) { return c.Balance.OK, c.Balance.Violations },
			diag:  "held at exit",
		},
		{
			file: "broken_uncovered.mc",
			check: func(c *certify.Certificate) (bool, []string) {
				var rs []string
				for _, u := range c.Coverage.Uncovered {
					rs = append(rs, u.Reason)
				}
				return c.Coverage.OK, rs
			},
			diag: "no common weak-lock",
		},
		{
			file:  "broken_order.mc",
			check: func(c *certify.Certificate) (bool, []string) { return c.Order.OK, c.Order.TimeoutReliant },
			diag:  "out of order",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", "negative", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			certA, err := certify.Certify(prog.Races, string(src), "negative", "instr")
			if err != nil {
				t.Fatalf("certify: %v", err)
			}
			if certA.OK {
				out, _ := certify.Render(certA)
				t.Fatalf("broken fixture certified clean:\n%s", out)
			}
			ok, diags := tc.check(certA)
			if ok {
				out, _ := certify.Render(certA)
				t.Fatalf("targeted check unexpectedly passed:\n%s", out)
			}
			found := false
			for _, d := range diags {
				if strings.Contains(d, tc.diag) {
					found = true
				}
			}
			if !found {
				t.Errorf("no diagnostic containing %q; got %q", tc.diag, diags)
			}
			// The diagnostic must be deterministic: re-certifying yields
			// a byte-identical certificate.
			certB, err := certify.Certify(prog.Races, string(src), "negative", "instr")
			if err != nil {
				t.Fatalf("re-certify: %v", err)
			}
			ra, _ := certify.Render(certA)
			rb, _ := certify.Render(certB)
			if !bytes.Equal(ra, rb) {
				t.Errorf("certificate not deterministic:\n--- first ---\n%s--- second ---\n%s", ra, rb)
			}
		})
	}
}
