package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/bench/harness"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
)

// embeddedConfigs are the two instrumentation configs of the
// embedded-dynamic workload: "instr" stresses weak-lock logging, and
// "all+mhp" is the flagship configuration.
var embeddedConfigs = []string{"instr", "all+mhp"}

// embeddedWorkers is the simulated worker-thread count of every cell
// (the paper's Table 2 setting).
const embeddedWorkers = 4

// runEmbedded measures uncached harness cells: one operation is
// harness.Suite.Measure — native, record, replay and the checked run —
// of one benchmark × config. Analysis, profiling and instrumentation are
// set-up. The seed only orders the cells of each pass; whole passes are
// measured, so every run covers the same cells.
func runEmbedded(cfg runConfig) (*report, error) {
	setupS, suite, err := timeSetup(func() (*harness.Suite, error) {
		hc := harness.Default()
		hc.NoCache = true
		hc.Precision = true
		s, err := harness.NewSuite(hc)
		if err != nil {
			return nil, err
		}
		for _, p := range s.Items {
			for _, c := range embeddedConfigs {
				if _, err := p.Instrumented(c); err != nil {
					return nil, err
				}
			}
		}
		return s, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	var cells []harness.Cell
	for _, p := range suite.Items {
		for _, c := range embeddedConfigs {
			cells = append(cells, harness.Cell{P: p, Config: c, Workers: embeddedWorkers})
		}
	}
	order := func(i int) harness.Cell {
		pass, k := i/len(cells), i%len(cells)
		return cells[permutation(len(cells), cfg.seed, uint64(pass))[k]]
	}
	measure := func(i int) (*harness.Measurement, bool, time.Duration) {
		c := order(i)
		start := time.Now()
		m, err := suite.Measure(c.P, c.Config, c.Workers)
		lat := time.Since(start)
		if err != nil {
			fmt.Printf("cell %s/%s failed: %v\n", c.P.B.Name, c.Config, err)
			return nil, false, lat
		}
		ok := m.ReplayMatches && m.CheckerRaces == 0 && m.CheckersAgree
		if !ok {
			fmt.Printf("cell %s/%s failed its oracle: replay_matches=%v checker_races=%d checkers_agree=%v\n",
				m.Bench, m.Config, m.ReplayMatches, m.CheckerRaces, m.CheckersAgree)
		}
		return m, ok, lat
	}

	rep := &report{metrics: map[string]float64{"setup_s": setupS}}
	if cfg.trace {
		return rep, traceEmbedded(cfg, rep, suite, order, measure)
	}

	// Whole passes only: a new pass starts while it is expected to end
	// within the interval, and the first pass always runs.
	latByCell := make(map[harness.Cell][]float64)
	byCell := make(map[harness.Cell]*harness.Measurement)
	heap := startHeapSampler()
	start := time.Now()
	for pass := 0; ; pass++ {
		elapsed := time.Since(start)
		if pass > 0 && elapsed.Seconds()+elapsed.Seconds()/float64(pass)/2 > cfg.seconds {
			break
		}
		passStart := time.Now()
		for k := range cells {
			i := pass*len(cells) + k
			m, ok, d := measure(i)
			rep.attempted++
			if !ok {
				rep.failed++
			}
			latByCell[order(i)] = append(latByCell[order(i)], ms(d))
			if m != nil && pass == 0 {
				byCell[order(k)] = m
			}
		}
		fmt.Printf("pass %d: %d cells in %.3f s\n", pass, len(cells), time.Since(passStart).Seconds())
	}
	elapsed := time.Since(start)
	// The 18 cells differ in size by two orders of magnitude, so a
	// percentile over the pooled samples falls between two cells and
	// jumps with the number of passes. Each cell's median over the passes
	// keeps every percentile on the same cells in every run.
	var lat []float64
	for _, c := range cells {
		lat = append(lat, median(latByCell[c]))
	}
	latencyMetrics(rep.metrics, lat, rep.attempted, elapsed)

	// Deterministic outputs of the first pass, in canonical cell order.
	var recX, repX []float64
	var logBytes, pairs int64
	h := sha256.New()
	for _, c := range cells {
		m := byCell[c]
		if m == nil {
			continue
		}
		ip, err := c.P.Instrumented(c.Config)
		if err != nil {
			return nil, err
		}
		recX = append(recX, m.RecordOverhead)
		repX = append(repX, m.ReplayOverhead)
		logBytes += m.RecordLogBytes
		pairs += int64(len(ip.Rep.Pairs))
		row, err := json.Marshal(m.Metrics)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(h, "%s/%s pairs=%d locks=%d log=%d replay=%v %s\n",
			m.Bench, m.Config, len(ip.Rep.Pairs), ip.Table.Len(), m.RecordLogBytes, m.ReplayMatches, row)
	}
	rep.digest = hex.EncodeToString(h.Sum(nil))
	rep.metrics["success_rate"] = successRate(rep.attempted, rep.failed)
	rep.metrics["live_heap_p90_mb"] = heap.p90MiB()
	rep.metrics["record_overhead_x"] = geomean(recX)
	rep.metrics["replay_overhead_x"] = geomean(repX)
	rep.metrics["log_bytes"] = float64(logBytes)
	rep.metrics["instrumented_pairs"] = float64(pairs)
	return rep, nil
}

// traceEmbedded alternates, cell by cell, an untraced harness
// measurement and the same cell through the benchmark's own calls into
// core — native, record, replay, checked run — each in a span.
// Alternating keeps both halves on the same machine speed.
func traceEmbedded(cfg runConfig, rep *report, suite *harness.Suite,
	order func(int) harness.Cell, measure func(int) (*harness.Measurement, bool, time.Duration)) error {
	t, err := startTraced(cfg, "embedded-dynamic")
	if err != nil {
		return err
	}
	tr := obs.NewTracer()
	var ns, instrs [3]int64 // native, record, replay
	var checkNS, events int64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		_, ok, d := measure(i)
		rep.attempted++
		if !ok {
			rep.failed++
		}
		t.untraced += d

		c := order(i)
		ip, err := c.P.Instrumented(c.Config)
		if err != nil {
			return err
		}
		hc, w := suite.Cfg, c.Workers
		opStart := time.Now()
		root := tr.Start("cell").SetStr("bench", c.P.B.Name).SetStr("config", c.Config)

		sp := tr.Start("native")
		native := c.P.Prog.RunNative(core.RunConfig{World: c.P.B.EvalWorld(w), Seed: hc.Seed, HeapWords: hc.HeapWords})
		sp.End()
		ns[0] += sp.WallNS()
		instrs[0] += native.Counters.Instrs

		sp = tr.Start("record")
		var cw countWriter
		recRes, log, lw := ip.RecordTo(core.RunConfig{World: c.P.B.EvalWorld(w), Seed: hc.Seed, Table: ip.Table, HeapWords: hc.HeapWords}, &cw)
		sp.SetAttr("log_bytes", cw.n).End()
		ns[1] += sp.WallNS()
		instrs[1] += recRes.Counters.Instrs
		t.counts["record.weak_lock_ops"] += float64(recRes.WLStats.TotalOps())
		t.counts["record.order_log_bytes"] += float64(lw.OrderBytesWritten())

		sp = tr.Start("replay")
		repRes, repErr := ip.Replay(log, core.RunConfig{World: c.P.B.EvalWorld(w), Seed: hc.ReplaySeed, Table: ip.Table, HeapWords: hc.HeapWords})
		sp.End()
		ns[2] += sp.WallNS()
		if repErr == nil {
			instrs[2] += repRes.Counters.Instrs
		}

		sp = tr.Start("dynamic-check")
		chk, vchk := trace.NewChecker(0), trace.NewVectorChecker(0)
		chkRes := core.CheckDynamicRacesWith(ip.Prog, ip.Table, core.RunConfig{
			World: c.P.B.EvalWorld(w), Seed: hc.Seed, HeapWords: hc.HeapWords,
			Sinks: []vm.EventSink{&obs.EventCounter{}},
		}, chk, vchk)
		sp.End()
		checkNS += sp.WallNS()
		events += chkRes.Counters.EventsEmitted
		t.counts["dynamic-check.checker_ms"] += float64(chk.WallNS()) / 1e6
		root.End()
		t.traced += time.Since(opStart)
		t.ops++

		ok = native.Err == nil && recRes.Err == nil && repErr == nil && chkRes.Err == nil &&
			repRes.Hash64() == recRes.Hash64() && chk.RaceCount() == 0 &&
			trace.SameVerdicts(chk.Races(), vchk.Races())
		rep.attempted++
		if !ok {
			rep.failed++
			fmt.Printf("traced cell %s/%s failed its oracle\n", c.P.B.Name, c.Config)
		}
	}
	t.roots = tr.Nodes()
	t.counts["dynamic-check.events"] = float64(events)
	if err := t.finish(cfg, "embedded-dynamic", rep.metrics, nil); err != nil {
		return err
	}
	rep.metrics["native.ns_per_instr"] = perUnit(ns[0], instrs[0])
	rep.metrics["record.ns_per_instr"] = perUnit(ns[1], instrs[1])
	rep.metrics["replay.ns_per_instr"] = perUnit(ns[2], instrs[2])
	rep.metrics["dynamic-check.ns_per_event"] = perUnit(checkNS, events)
	return nil
}

func perUnit(ns, units int64) float64 {
	if units == 0 {
		return 0
	}
	return float64(ns) / float64(units)
}
