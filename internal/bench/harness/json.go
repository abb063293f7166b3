package harness

import (
	"encoding/json"
	"sort"

	"repro/internal/obs"
)

// JSONEntry is one benchmark/configuration data point in the
// machine-readable benchmark export (BENCH_PR*.json): the static analysis
// volume (race pairs surviving refinement, weak locks emitted) alongside
// the measured record/replay overheads and the wall-clock cost of the
// shared analysis artifact.
type JSONEntry struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`

	// StaticPairs is the unrefined RELAY pair count; InstrumentedPairs is
	// what survived every refinement this row's config ran (MHP and/or the
	// precision layer) and actually received weak locks; PrunedPairs is
	// their difference, broken down by prune reason in PrunedBy.
	StaticPairs       int            `json:"static_pairs"`
	InstrumentedPairs int            `json:"instrumented_pairs"`
	PrunedPairs       int            `json:"pruned_pairs"`
	PrunedBy          map[string]int `json:"pruned_by,omitempty"`
	WeakLocks         int            `json:"weak_locks"`

	// AnalysisWallNS is the wall-clock time spent computing this
	// benchmark's shared analysis artifact (parse → points-to → callgraph
	// → RELAY). With the analysis cache it is identical across every
	// config row of one benchmark: the artifact was computed once and
	// shared, not recomputed per config.
	AnalysisWallNS int64 `json:"analysis_wall_ns"`

	RecordOverhead float64 `json:"record_overhead"`
	ReplayOverhead float64 `json:"replay_overhead"`
	ReplayMatches  bool    `json:"replay_matches"`

	// Streamed chunked-log sizes in compressed bytes: the whole recording
	// stream and the order-stream share of its chunks.
	RecordLogBytes int64 `json:"record_log_bytes"`
	OrderLogBytes  int64 `json:"order_log_bytes"`

	// Real wall-clock nanoseconds of the dynamic phases: the recording run
	// (with the log streaming to a writer), the gated replay run including
	// the drains of the checkers riding it, and the epoch race checker's
	// own share of that replay. Unlike every simulated metric these vary
	// run to run; see EXPERIMENTS.md.
	RecordWallNS  int64 `json:"record_wall_ns"`
	ReplayWallNS  int64 `json:"replay_wall_ns"`
	CheckerWallNS int64 `json:"checker_wall_ns"`

	// CheckerRaces is the epoch checker's verdict count on the replay's
	// event stream (0 for a correctly instrumented program);
	// CheckersAgree reports whether the replay matched and the
	// full-vector oracle on the same stream reached the identical verdict
	// set. The scenario soundness gate in CI asserts
	// both.
	CheckerRaces  int  `json:"checker_races"`
	CheckersAgree bool `json:"checkers_agree"`

	// Certified reports whether the static DRF/deadlock-freedom certifier
	// (internal/certify) validated this row's instrumented output against
	// its race report; CertifyWallNS is the certifier's wall-clock cost
	// (one-time per benchmark × config, memoized alongside the
	// instrumentation).
	Certified     bool  `json:"certified"`
	CertifyWallNS int64 `json:"certify_wall_ns"`

	// Metrics is the observability block: per-stage makespans,
	// per-weak-lock-site counters, event-stream stats and the log-stream
	// breakdown. Every field in it is simulated and deterministic.
	Metrics *obs.RowMetrics `json:"metrics,omitempty"`

	// QueueWaitNS and ServerRunNS appear only on server-mode rows
	// (chimera-bench -server): the chimerad queue wait and execution wall
	// the job view reported for this row's gen-pipeline job.
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	ServerRunNS int64 `json:"server_run_ns,omitempty"`
}

// JSONReport is the machine-readable export document. Entries are sorted
// by (bench, config) so the file diffs cleanly across PRs regardless of
// measurement scheduling.
type JSONReport struct {
	// Parallel is the harness worker-pool bound the run used.
	Parallel int `json:"parallel"`
	// Workers is the evaluation (simulated) worker count of each cell.
	Workers int `json:"workers"`

	// HarnessWallNS is the wall-clock time of the full harness workload
	// in this configuration.
	HarnessWallNS int64 `json:"harness_wall_ns"`

	// Incremental, when present, is the warm-edit measurement of the
	// summary-store-backed incremental analysis (see MeasureIncremental).
	Incremental *IncrementalBench `json:"incremental,omitempty"`

	Entries []JSONEntry `json:"entries"`
}

// MeasureJSON measures every prepared benchmark under the given
// configurations (cells fan out over Cfg.Parallel workers) and returns
// machine-readable entries sorted by (bench, config).
func (s *Suite) MeasureJSON(configNames []string) ([]JSONEntry, error) {
	var cells []Cell
	for _, p := range s.Items {
		for _, cn := range configNames {
			cells = append(cells, Cell{P: p, Config: cn, Workers: s.Cfg.Workers})
		}
	}
	ms, err := s.MeasureCells(cells)
	if err != nil {
		return nil, err
	}
	out := make([]JSONEntry, len(cells))
	for i, c := range cells {
		m := ms[i]
		ip, err := c.P.Instrumented(c.Config)
		if err != nil {
			return nil, err
		}
		rep := ip.Rep
		cert, certWall, err := ip.Certify()
		if err != nil {
			return nil, err
		}
		var prunedBy map[string]int
		if len(rep.Pruned) > 0 {
			prunedBy = make(map[string]int, 4)
			for _, pp := range rep.Pruned {
				prunedBy[pp.Reason]++
			}
		}
		out[i] = JSONEntry{
			Bench:             m.Bench,
			Config:            m.Config,
			StaticPairs:       len(c.P.Prog.Races.Pairs),
			InstrumentedPairs: len(rep.Pairs),
			PrunedPairs:       len(rep.Pruned),
			PrunedBy:          prunedBy,
			WeakLocks:         ip.Table.Len(),
			AnalysisWallNS:    c.P.Prog.AnalysisWallNS,
			RecordOverhead:    m.RecordOverhead,
			ReplayOverhead:    m.ReplayOverhead,
			ReplayMatches:     m.ReplayMatches,
			RecordLogBytes:    m.RecordLogBytes,
			OrderLogBytes:     m.OrderLogBytes,
			RecordWallNS:      m.RecordWallNS,
			ReplayWallNS:      m.ReplayWallNS,
			CheckerWallNS:     m.CheckerWallNS,
			CheckerRaces:      m.CheckerRaces,
			CheckersAgree:     m.CheckersAgree,
			Certified:         cert.OK,
			CertifyWallNS:     certWall,
			Metrics:           m.Metrics,
		}
	}
	SortEntries(out)
	return out, nil
}

// SortEntries orders entries canonically by (bench, config).
func SortEntries(entries []JSONEntry) {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Bench != entries[j].Bench {
			return entries[i].Bench < entries[j].Bench
		}
		return entries[i].Config < entries[j].Config
	})
}

// RenderJSON serializes a report with stable formatting for checking into
// the repository; entries are (re)sorted canonically first.
func RenderJSON(rep *JSONReport) ([]byte, error) {
	SortEntries(rep.Entries)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
