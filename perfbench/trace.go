package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
)

// tracedRun collects the traced half of a --trace 1 run: the span forest
// (one root per operation), per-operation counters, and the summed time
// of the same operations run untraced and traced, for the health checks.
type tracedRun struct {
	roots  []*obs.SpanNode
	ops    int
	counts map[string]float64 // summed over ops; reported per op

	untraced, traced time.Duration

	stopProfile func() error
}

// startTraced opens the run's CPU profile.
func startTraced(cfg runConfig, workload string) (*tracedRun, error) {
	f, err := os.Create(filepath.Join(cfg.artifacts, workload+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &tracedRun{
		counts: make(map[string]float64),
		stopProfile: func() error {
			pprof.StopCPUProfile()
			return f.Close()
		},
	}, nil
}

// finish stops the profile, writes the Perfetto trace, and renders the
// per-layer metrics: every span name's self time per operation as
// "<name>.ms", every counter per operation, trace.overhead and
// trace.coverage. rename maps span names onto the metric vocabulary.
func (t *tracedRun) finish(cfg runConfig, workload string, m map[string]float64, rename map[string]string) error {
	if err := t.stopProfile(); err != nil {
		return err
	}
	data, err := obs.PerfettoNodes(t.roots)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.artifacts, workload+".perfetto.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace written to %s (CPU profile beside it)\n", path)

	n := float64(t.ops)
	var covered int64
	for name, ns := range selfTimes(t.roots) {
		covered += ns
		if r, ok := rename[name]; ok {
			name = r
		}
		m[name+".ms"] += float64(ns) / 1e6 / n
	}
	for name, v := range t.counts {
		m[name] = v / n
	}
	m["trace.overhead"] = t.traced.Seconds() / t.untraced.Seconds()
	m["trace.coverage"] = float64(covered) / float64(t.untraced.Nanoseconds())
	return nil
}

// selfTimes sums each span name's self time — its duration minus the
// part its children cover — over the forest. Roots are the operations
// themselves and are not a layer, so their self time is left out.
func selfTimes(roots []*obs.SpanNode) map[string]int64 {
	out := make(map[string]int64)
	var walk func(n *obs.SpanNode, root bool)
	walk = func(n *obs.SpanNode, root bool) {
		self := n.WallNS()
		for _, c := range n.Children {
			self -= c.WallNS()
			walk(c, false)
		}
		if !root && self > 0 {
			out[n.Name] += self
		}
	}
	for _, r := range roots {
		walk(r, true)
	}
	return out
}
