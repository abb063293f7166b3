package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// deterministic names the end-to-end metrics that are a pure function of
// the code and the seed: a change must leave them exactly equal unless it
// claims to move them.
var deterministic = map[string]bool{
	"record_overhead_x":  true,
	"replay_overhead_x":  true,
	"log_bytes":          true,
	"instrumented_pairs": true,
}

// Gain rule: at least minPairs parent/change pairs, the change wins at
// least winShare of them, and the medians differ by more than the
// parent's interquartile range.
const (
	minPairs = 10
	winShare = 0.9
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runCompare reads two result directories and judges every end-to-end
// metric of every workload. A directory holds <workload>.jsonl files,
// each line the JSON result of one run, in run order; line i of the
// parent and line i of the change form pair i, and the runs of a pair
// should alternate which side goes first. Traced runs (per-layer
// metrics) may share the files; their medians are printed as deltas.
func runCompare(parentDir, changeDir, specPath string, w io.Writer) error {
	var spec benchmarkSpec
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	files, err := filepath.Glob(filepath.Join(parentDir, "*.jsonl"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("%s holds no <workload>.jsonl files", parentDir)
	}
	sort.Strings(files)
	for _, pf := range files {
		workload := strings.TrimSuffix(filepath.Base(pf), ".jsonl")
		parent, err := readResults(pf)
		if err != nil {
			return err
		}
		change, err := readResults(filepath.Join(changeDir, filepath.Base(pf)))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== %s\n", workload)
		fmt.Fprintf(w, "%-22s %5s %14s %14s %8s %6s %12s  %s\n",
			"metric", "pairs", "parent_med", "change_med", "delta", "wins", "parent_iqr", "verdict")
		for _, m := range spec.EndToEnd {
			p, c := series(parent, m.Name), series(change, m.Name)
			n := min(len(p), len(c))
			if n == 0 {
				continue
			}
			p, c = p[:n], c[:n]
			pm, cm := median(p), median(c)
			iqr := quartileSpread(p)
			wins := 0
			for i := range p {
				if better(m.Better, c[i], p[i]) {
					wins++
				}
			}
			fmt.Fprintf(w, "%-22s %5d %14.6g %14.6g %+7.2f%% %6d %12.6g  %s\n",
				m.Name, n, pm, cm, 100*(cm-pm)/pm, wins, iqr, verdict(m.Name, m.Better, m.Bound, p, c, wins))
		}
		fmt.Fprintf(w, "per-layer medians (traced runs):\n")
		for _, m := range spec.PerLayer {
			p, c := series(parent, m.Name), series(change, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pm, cm := median(p), median(c)
			delta := "n/a"
			if pm != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(cm-pm)/pm)
			}
			fmt.Fprintf(w, "  %-30s %14.6g -> %-14.6g %s\n", m.Name, pm, cm, delta)
		}
	}
	return nil
}

// verdict applies the gain rule, the no-regression bound, and the
// exact-match rule for deterministic metrics.
func verdict(name, dir string, bound float64, p, c []float64, wins int) string {
	if deterministic[name] {
		for i := range p {
			if p[i] != c[i] {
				return "CHANGED (deterministic metric differs)"
			}
		}
		return "identical"
	}
	n := len(p)
	pm, cm := median(p), median(c)
	worse := (cm - pm) / pm
	if dir == "higher" {
		worse = -worse
	}
	if n < minPairs {
		return fmt.Sprintf("unresolved (%d pairs, need %d)", n, minPairs)
	}
	iqr := quartileSpread(p)
	switch {
	case float64(wins) >= winShare*float64(n) && better(dir, cm, pm) && math.Abs(cm-pm) > iqr:
		return "improved"
	case worse > bound:
		return fmt.Sprintf("REGRESSED (worse by %.1f%%, bound %.0f%%)", 100*worse, 100*bound)
	case iqr/pm > bound:
		return "unresolved (parent spread exceeds the bound)"
	}
	return "within bound"
}

func better(dir string, a, b float64) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// quartileSpread is Q3 - Q1 as Python's statistics.quantiles(xs, n=4)
// computes them (the "exclusive" method).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := clamp(j-1, len(s)), clamp(j, len(s))
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return q(3) - q(1)
}

func clamp(i, n int) int { return max(0, min(i, n-1)) }

// readResults parses one JSON result per line, skipping blank lines.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects one metric from the results that carry it, in order.
func series(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
