package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/summary"
)

// incrementalEditOld/New is the scripted single edit the warm-vs-cold
// measurement applies: a one-constant change inside the embedded libc's
// my_checksum, which every benchmark links (FullSource appends LibC), so
// the same edit dirties a real call cone in all nine programs. The
// anchor is unique to the libc copy — benchmark-local checksums use a
// differently named accumulator.
const (
	incrementalEditOld = "h = h * 16777619;"
	incrementalEditNew = "h = h * 16777618;"
)

// IncrementalEntry is one benchmark's cold-vs-warm single-edit
// measurement: a fresh whole-program analysis of the edited source
// against an incremental re-analysis warmed by a store primed with the
// pre-edit program. Walls are minimum-of-reps wall-clock nanoseconds;
// the reuse counts are deterministic (a pure function of the edit).
type IncrementalEntry struct {
	Bench string `json:"bench"`

	// The dirty cone of the scripted edit: how much of the RELAY summary
	// walk the warm analysis reused versus recomputed.
	TotalFuncs      int `json:"total_funcs"`
	ReusedFuncs     int `json:"reused_funcs"`
	RecomputedFuncs int `json:"recomputed_funcs"`
	DirtySCCs       int `json:"dirty_sccs"`

	// Full-pipeline walls (parse → … → RELAY) and the RELAY stage's own
	// share, cold (fresh analysis of the edited source) and warm (store
	// primed with the original source).
	ColdWallNS      int64   `json:"cold_wall_ns"`
	WarmWallNS      int64   `json:"warm_wall_ns"`
	Speedup         float64 `json:"speedup"`
	ColdRelayWallNS int64   `json:"cold_relay_wall_ns"`
	WarmRelayWallNS int64   `json:"warm_relay_wall_ns"`
	RelaySpeedup    float64 `json:"relay_speedup"`

	// Identical reports the load-bearing guarantee: the warm run's race
	// report and MHP-refined report rendered byte-identically to cold's.
	Identical bool `json:"identical"`
}

// IncrementalBench is the machine-readable incremental-analysis section
// of the benchmark export: per-benchmark single-edit measurements plus
// the summed summary-store counters of every warm run.
type IncrementalBench struct {
	Edit    string                 `json:"edit"`
	Reps    int                    `json:"reps"`
	Workers int                    `json:"workers"`
	Entries []IncrementalEntry     `json:"entries"`
	Store   *obs.SummaryStoreStats `json:"store"`
}

// MeasureIncremental measures the warm-edit speedup of the incremental
// analysis over the named benchmarks (all nine when names is empty):
// for each, it primes a summary store with the original program, applies
// the scripted libc edit, and times the incremental re-analysis against
// a cold whole-program analysis of the same edited source. Both paths
// run with the given worker count; walls take the minimum of reps runs.
// Byte-identity of the warm report (plain and MHP-refined) against the
// cold one is verified on every rep and recorded per entry.
func MeasureIncremental(names []string, workers, reps int) (*IncrementalBench, error) {
	if reps < 1 {
		reps = 1
	}
	var list []*bench.Benchmark
	if len(names) == 0 {
		list = bench.All()
	} else {
		for _, n := range names {
			b := bench.ByName(n)
			if b == nil {
				return nil, fmt.Errorf("unknown benchmark %q", n)
			}
			list = append(list, b)
		}
	}

	out := &IncrementalBench{
		Edit:    incrementalEditOld + " -> " + incrementalEditNew,
		Reps:    reps,
		Workers: workers,
		Store:   &obs.SummaryStoreStats{},
	}
	for _, b := range list {
		e, st, err := measureIncrementalOne(b, workers, reps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		out.Entries = append(out.Entries, *e)
		out.Store.Hits += st.Hits
		out.Store.Misses += st.Misses
		out.Store.Puts += st.Puts
		out.Store.Evictions += st.Evictions
		out.Store.Entries += st.Entries
		out.Store.MHPHits += st.MHPHits
		out.Store.MHPMisses += st.MHPMisses
	}
	return out, nil
}

func measureIncrementalOne(b *bench.Benchmark, workers, reps int) (*IncrementalEntry, *summary.StoreStats, error) {
	orig := b.FullSource()
	edited := strings.Replace(orig, incrementalEditOld, incrementalEditNew, 1)
	if edited == orig {
		return nil, nil, fmt.Errorf("edit anchor %q not present", incrementalEditOld)
	}

	entry := &IncrementalEntry{Bench: b.Name, Identical: true}
	var stats summary.StoreStats
	for rep := 0; rep < reps; rep++ {
		// Cold: fresh whole-program analysis of the edited source.
		coldTr := obs.NewTracer()
		coldStart := time.Now()
		cold, err := core.LoadWith(b.Name, edited, core.LoadOptions{Workers: workers, Tracer: coldTr})
		coldWall := time.Since(coldStart).Nanoseconds()
		if err != nil {
			return nil, nil, err
		}

		// Warm: prime a fresh store with the original program (untimed),
		// then time the incremental re-analysis of the edited source.
		store := summary.NewStore()
		if _, err := core.LoadWith(b.Name, orig, core.LoadOptions{Workers: workers, Store: store}); err != nil {
			return nil, nil, err
		}
		warmTr := obs.NewTracer()
		warmStart := time.Now()
		warm, err := core.LoadWith(b.Name, edited, core.LoadOptions{Workers: workers, Store: store, Tracer: warmTr})
		warmWall := time.Since(warmStart).Nanoseconds()
		if err != nil {
			return nil, nil, err
		}

		if warm.Races.Render() != cold.Races.Render() ||
			warm.RefinedRaces().Render() != cold.RefinedRaces().Render() {
			entry.Identical = false
		}
		st := warm.Incremental
		entry.TotalFuncs = st.TotalFuncs
		entry.ReusedFuncs = st.ReusedFuncs
		entry.RecomputedFuncs = st.RecomputedFuncs
		entry.DirtySCCs = st.DirtySCCs
		stats = store.Stats()

		if rep == 0 || coldWall < entry.ColdWallNS {
			entry.ColdWallNS = coldWall
		}
		if rep == 0 || warmWall < entry.WarmWallNS {
			entry.WarmWallNS = warmWall
		}
		if w := stageWall(coldTr, "relay"); rep == 0 || w < entry.ColdRelayWallNS {
			entry.ColdRelayWallNS = w
		}
		if w := stageWall(warmTr, "relay"); rep == 0 || w < entry.WarmRelayWallNS {
			entry.WarmRelayWallNS = w
		}
	}
	if entry.WarmWallNS > 0 {
		entry.Speedup = float64(entry.ColdWallNS) / float64(entry.WarmWallNS)
	}
	if entry.WarmRelayWallNS > 0 {
		entry.RelaySpeedup = float64(entry.ColdRelayWallNS) / float64(entry.WarmRelayWallNS)
	}
	return entry, &stats, nil
}

// stageWall returns the wall time of the first stage with the given
// slash-joined path in the tracer's span forest, 0 when absent.
func stageWall(tr *obs.Tracer, path string) int64 {
	for _, st := range tr.Stages() {
		if st.Path == path {
			return st.WallNS
		}
	}
	return 0
}

// RenderIncremental formats the measurement as the human-readable table
// chimera-bench prints alongside the JSON export.
func RenderIncremental(ib *IncrementalBench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Incremental re-analysis after a single libc edit (%s), min of %d rep(s), %d worker(s):\n",
		ib.Edit, ib.Reps, ib.Workers)
	fmt.Fprintf(&sb, "%-8s %9s %9s %9s %11s %11s %8s %8s %s\n",
		"bench", "funcs", "reused", "dirty", "cold-relay", "warm-relay", "speedup", "full", "identical")
	for _, e := range ib.Entries {
		fmt.Fprintf(&sb, "%-8s %9d %9d %9d %10.2fms %10.2fms %7.2fx %7.2fx %v\n",
			e.Bench, e.TotalFuncs, e.ReusedFuncs, e.RecomputedFuncs,
			float64(e.ColdRelayWallNS)/1e6, float64(e.WarmRelayWallNS)/1e6,
			e.RelaySpeedup, e.Speedup, e.Identical)
	}
	return sb.String()
}
