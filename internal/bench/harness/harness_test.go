package harness

import (
	"strings"
	"testing"

	"repro/internal/weaklock"
)

// TestSingleBenchmarkPipeline exercises the full measurement path on one
// cheap benchmark.
func TestSingleBenchmarkPipeline(t *testing.T) {
	s, err := NewSuite(Default(), "pbzip2")
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	p := s.Items[0]
	m, err := s.Measure(p, "all", 4)
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	if !m.ReplayMatches {
		t.Fatalf("replay did not match recording: %s", m.ReplayErr)
	}
	if m.Timeouts != 0 {
		t.Errorf("unexpected weak-lock timeouts: %d", m.Timeouts)
	}
	if m.RecordOverhead < 1.0 {
		t.Errorf("record overhead %.3f below 1.0?", m.RecordOverhead)
	}
	if m.Syscalls == 0 {
		t.Errorf("no syscalls logged")
	}
}

// Table 2's compressed log sizes are the CHIMLOG2 writer's per-stream
// wire bytes of the recording, in KB.
func TestTable2LogKBFromWriter(t *testing.T) {
	s, err := NewSuite(Default(), "pbzip2", "fft")
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	ms, _, err := s.Table2()
	if err != nil {
		t.Fatalf("table 2: %v", err)
	}
	for _, m := range ms {
		in, ord := m.Metrics.Log.InputBytes, m.Metrics.Log.OrderBytes
		if m.InputLogKB <= 0 || m.OrderLogKB <= 0 {
			t.Errorf("%s: log sizes %.3f/%.3f KB, want positive", m.Bench, m.InputLogKB, m.OrderLogKB)
		}
		if m.InputLogKB != float64(in)/1024 || m.OrderLogKB != float64(ord)/1024 {
			t.Errorf("%s: %.3f/%.3f KB, writer streams %d/%d bytes", m.Bench, m.InputLogKB, m.OrderLogKB, in, ord)
		}
	}
}

// TestOptimizationOrdering checks the Figure 5 shape on one benchmark:
// all-opts must beat naive instr by a wide margin.
func TestOptimizationOrdering(t *testing.T) {
	s, err := NewSuite(Default(), "radix")
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	p := s.Items[0]
	naive, err := s.Measure(p, "instr", 4)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	all, err := s.Measure(p, "all", 4)
	if err != nil {
		t.Fatalf("all: %v", err)
	}
	if !naive.ReplayMatches || !all.ReplayMatches {
		t.Fatalf("replay mismatch: naive=%s all=%s", naive.ReplayErr, all.ReplayErr)
	}
	if all.RecordOverhead >= naive.RecordOverhead {
		t.Errorf("all-opts (%.2fx) should beat naive (%.2fx)",
			all.RecordOverhead, naive.RecordOverhead)
	}
	// Figure 6 shape: instrumented op fraction drops by a big factor.
	fNaive := float64(naive.WLOps) / float64(naive.MemOps)
	fAll := float64(all.WLOps) / float64(all.MemOps)
	if fAll*3 > fNaive {
		t.Errorf("wl-op fraction did not drop: naive %.4f, all %.4f", fNaive, fAll)
	}
	// radix's all-opts config uses loop locks (paper Fig. 4).
	if all.WLLogs[weaklock.KindLoop] == 0 {
		t.Errorf("radix should produce loop-lock logs; got %+v", all.WLLogs)
	}
}

func TestTable1Renders(t *testing.T) {
	s, err := NewSuite(Default(), "pbzip2", "fft")
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	out := s.Table1()
	if !strings.Contains(out, "pbzip2") || !strings.Contains(out, "fft") {
		t.Errorf("table 1 missing rows:\n%s", out)
	}
}

func TestProfileSensitivity(t *testing.T) {
	rows, out, err := ProfileSensitivity([]string{"pfscan"}, 5)
	if err != nil {
		t.Fatalf("sensitivity: %v", err)
	}
	if len(rows) != 1 || len(rows[0].Pairs) != 5 {
		t.Fatalf("bad rows: %+v", rows)
	}
	// Monotone non-decreasing and saturating (last two equal is typical).
	p := rows[0].Pairs
	for i := 1; i < len(p); i++ {
		if p[i] < p[i-1] {
			t.Errorf("pair counts must be monotone: %v", p)
		}
	}
	if !strings.Contains(out, "pfscan") {
		t.Errorf("render missing bench name:\n%s", out)
	}
}
