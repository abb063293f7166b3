package harness

import (
	"strings"
	"testing"

	"repro/internal/weaklock"
)

// oneBenchSuite prepares a single cheap benchmark for figure smoke tests.
func oneBenchSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(Default(), "pbzip2")
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	return s
}

func TestFigure5And6Render(t *testing.T) {
	s := oneBenchSuite(t)
	rows5, out5, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows5) != 1 || !strings.Contains(out5, "pbzip2") {
		t.Errorf("figure 5 rows/render wrong:\n%s", out5)
	}
	for _, cn := range ConfigNames {
		if rows5[0].Values[cn] < 0.5 {
			t.Errorf("%s overhead %.2f implausible", cn, rows5[0].Values[cn])
		}
	}
	rows6, out6, err := s.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if rows6[0].Values["instr"] <= rows6[0].Values["all"] {
		t.Errorf("figure 6: naive fraction should exceed all-opts:\n%s", out6)
	}
}

func TestFigure7Render(t *testing.T) {
	s := oneBenchSuite(t)
	rows, out, err := s.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !strings.Contains(out, "loop") {
		t.Errorf("figure 7 render:\n%s", out)
	}
	// Totals must be finite and non-negative.
	for k := weaklock.Kind(0); k < weaklock.NumKinds; k++ {
		if rows[0].Logging[k] < 0 || rows[0].Contention[k] < 0 {
			t.Errorf("negative breakdown for %s", k)
		}
	}
}

func TestFigure8Render(t *testing.T) {
	s := oneBenchSuite(t)
	rows, out, err := s.Figure8([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Overheads[2] == 0 || rows[0].Overheads[4] == 0 {
		t.Errorf("figure 8 rows wrong: %+v\n%s", rows, out)
	}
}

func TestNewSuiteUnknownBenchmark(t *testing.T) {
	if _, err := NewSuite(Default(), "nope"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

// TestApacheMemsetAnecdote pins the paper's flagship §7.3 example: RELAY
// reports a false self-race in my_memset's hot loop, and the all-opts
// instrumentation gives that loop a RANGED loop-lock (symbolic bounds
// [dst, dst+len-1]) so concurrent responses stay parallel.
func TestApacheMemsetAnecdote(t *testing.T) {
	s, err := NewSuite(Default(), "apache")
	if err != nil {
		t.Fatal(err)
	}
	ip, err := s.Items[0].Instrumented("all")
	if err != nil {
		t.Fatal(err)
	}
	src := ip.Prog.Source
	i := strings.Index(src, "void my_memset")
	if i < 0 {
		t.Fatal("my_memset missing")
	}
	j := strings.Index(src[i:], "\n}")
	body := src[i : i+j]
	if !strings.Contains(body, "wl_acquire(1") {
		t.Errorf("my_memset should carry a loop-granularity lock:\n%s", body)
	}
	if !strings.Contains(body, "__wlb") {
		t.Errorf("my_memset's loop-lock should be ranged (symbolic bounds):\n%s", body)
	}
	// And it must actually run in parallel: measure contention on loop
	// locks relative to naive apache.
	m, err := s.Measure(p0(s), "all", 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Timeouts != 0 {
		t.Errorf("timeouts in apache: %d", m.Timeouts)
	}
}

func p0(s *Suite) *Prepared { return s.Items[0] }
