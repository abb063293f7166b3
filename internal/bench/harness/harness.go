// Package harness drives the full evaluation: it prepares every benchmark
// (analyze → profile, then instrument each configuration on first use),
// measures native/record/replay executions on the simulated multicore, and
// regenerates each table and figure of the paper's evaluation section:
//
//	Table 1   benchmarks, LOC, profile/eval environments
//	Table 2   DRF logs, weak-lock logs by granularity, record/replay
//	          overheads, compressed log sizes
//	Figure 5  recording overhead per optimization set
//	Figure 6  weak-lock operations as a fraction of memory operations
//	Figure 7  logging vs contention breakdown per weak-lock granularity
//	Figure 8  scalability over 2/4/8 workers
//	§7.3      profile-run sensitivity (concurrent-pair saturation)
//
// Absolute numbers come from the simulator's cost model; the claims under
// test are the *relative* ones — which configuration wins, by roughly what
// factor, and where each benchmark class lands.
package harness

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oskit"
	"repro/internal/pool"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/weaklock"
)

// ConfigNames lists the optimization configurations of Figure 5, in
// presentation order.
var ConfigNames = []string{"instr", "instr+func", "instr+loop", "all"}

// MHPConfigNames lists the configurations of the Figure-5-style MHP
// comparison: each instrumentation level with and without the static
// may-happen-in-parallel refinement pruning the race pairs first.
var MHPConfigNames = []string{"instr", "instr+mhp", "all", "all+mhp"}

// Config parameterizes the harness.
type Config struct {
	Workers    int    // evaluation worker count (default 4)
	Seed       uint64 // record seed
	ReplaySeed uint64
	HeapWords  int64 // VM heap words (0: the VM default)

	// Parallel bounds the harness worker pool: benchmark preparation and
	// independent benchmark × config measurement cells run on up to this
	// many goroutines ( <=1 preserves the fully sequential path). Output
	// ordering is independent of the value: results land in pre-indexed
	// slots and every rendered table/figure/JSON row keeps its canonical
	// order.
	Parallel int

	// NoCache disables the measurement and native-run caches, re-running
	// every cell from scratch; results are identical either way. The
	// benchmark's uncached embedded-dynamic cells and
	// TestSuiteDeterministicUnderParallelism set it.
	NoCache bool

	// Precision applies the static precision layer (internal/escape:
	// thread-escape, must-lockset sharpening, read-only sharing) to every
	// configuration's race report before instrumentation. "+mhp" configs
	// get precision over the MHP-refined report, the rest over the raw
	// RELAY report.
	Precision bool
}

// Default returns the Table 2 configuration: 4 worker threads, sequential
// harness.
func Default() Config {
	return Config{Workers: bench.DefaultWorkers, Seed: core.DefaultSeed, ReplaySeed: core.DefaultReplaySeed, Parallel: 1}
}

// Prepared caches everything derivable from one benchmark independent of
// the measured run: the analysis, the profile, and one instrumentation per
// configuration, built on first use. The analysis artifact (Prog and its
// race reports) is computed once and shared read-only across every
// config; instrumentations are added under a mutex so concurrent
// measurement cells of one benchmark stay safe.
type Prepared struct {
	B    *bench.Benchmark
	Prog *core.Program
	Conc *profile.Concurrency

	// Precision mirrors Config.Precision: every configuration is
	// instrumented as if its label ended in "+precision".
	Precision bool

	mu   sync.Mutex // guards inst
	inst map[string]*core.Instrumented
}

// Instrumented returns the instrumentation for a configuration label
// (core.ParseConfig), building and caching it on first use.
func (p *Prepared) Instrumented(configName string) (*core.Instrumented, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ip, ok := p.inst[configName]; ok {
		return ip, nil
	}
	c, ok := core.ParseConfig(configName)
	if !ok {
		return nil, fmt.Errorf("%s: unknown config %q", p.B.Name, configName)
	}
	c.Precision = c.Precision || p.Precision
	ip, err := p.Prog.InstrumentAs(c, p.Conc, nil)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", p.B.Name, configName, err)
	}
	p.inst[configName] = ip
	return ip, nil
}

// Suite is a set of prepared benchmarks.
type Suite struct {
	Cfg   Config
	Items []*Prepared

	// Analyses is the shared per-program analysis cache (stage 2 of the
	// pipeline caching): every Prepared's Prog comes out of it, and reruns
	// over the same sources hit instead of recomputing.
	Analyses *core.Cache

	// measured memoizes finished measurement cells (bench|config|workers):
	// Table 2, Figures 5–8 and the JSON export overlap heavily, and every
	// cell is deterministic, so each is measured once per suite.
	measMu   sync.Mutex
	measured map[string]*Measurement

	// natives memoizes the uninstrumented baseline run per
	// (bench, workers): it is config-independent.
	natMu   sync.Mutex
	natives map[string]*vm.Result
}

// NewSuite prepares the named benchmarks (all of them when names is
// empty), fanning the per-benchmark preparation over cfg.Parallel workers.
// Items keeps the canonical benchmark order regardless of parallelism.
func NewSuite(cfg Config, names ...string) (*Suite, error) {
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
	return NewSuiteOf(cfg, list)
}

// NewSuiteOf prepares an explicit benchmark list — the entry point for
// workloads that are not in the embedded registry, such as generated
// scenarios adapted via scenario.ToBenchmark.
func NewSuiteOf(cfg Config, list []*bench.Benchmark) (*Suite, error) {
	s := &Suite{
		Cfg:      cfg,
		Analyses: core.NewCache(nil),
		measured: make(map[string]*Measurement),
		natives:  make(map[string]*vm.Result),
	}
	items := make([]*Prepared, len(list))
	err := s.forEach(len(list), func(i int) (err error) {
		items[i], err = s.prepare(list[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	s.Items = items
	return s, nil
}

// forEach runs fn(0..n-1) on cfg.Parallel workers (pool.RunWave; inline
// when sequential) and returns the lowest-index error, so failures are
// deterministic regardless of scheduling.
func (s *Suite) forEach(n int, fn func(i int) error) error {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return pool.RunWave(s.Cfg.Parallel, idx, fn)
}

// Prepare analyzes and profiles one benchmark, standalone (no shared
// caches, sequential analysis).
func Prepare(b *bench.Benchmark) (*Prepared, error) {
	return prepareWith(core.NewCache(nil), b, 1, false)
}

func (s *Suite) prepare(b *bench.Benchmark) (*Prepared, error) {
	workers := s.Cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	return prepareWith(s.Analyses, b, workers, s.Cfg.Precision)
}

func prepareWith(cache *core.Cache, b *bench.Benchmark, workers int, precision bool) (*Prepared, error) {
	prog, err := cache.Load(b.Name, b.FullSource(), workers, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	conc := prog.ProfileNonConcurrency(b.ProfileWorld, b.ProfileRuns, 10_000)
	return &Prepared{B: b, Prog: prog, Conc: conc, Precision: precision, inst: make(map[string]*core.Instrumented)}, nil
}

// Measurement is one measured configuration of one benchmark.
type Measurement struct {
	Bench  string
	Config string

	NativeMakespan int64
	RecordMakespan int64
	ReplayMakespan int64

	RecordOverhead float64
	ReplayOverhead float64

	// DRF log volumes (Table 2 left columns).
	Syscalls int // input-log records
	SyncOps  int // order-log records for original sync

	// Weak-lock log records by granularity (Table 2 middle columns:
	// instr. / basic blk. / loop / func.).
	WLLogs [weaklock.NumKinds]int64

	// Dynamic operation counts (Figure 6).
	MemOps int64
	WLOps  int64

	// Per-kind logging and contention cycles (Figure 7).
	LogCycles  [weaklock.NumKinds]int64
	Contention [weaklock.NumKinds]int64

	// Compressed log sizes in KB (Table 2 right columns): the recording's
	// per-stream CHIMLOG2 wire bytes, from its LogWriter.
	InputLogKB float64
	OrderLogKB float64

	// Streamed chunked-log sizes in compressed bytes, from the LogWriter
	// attached to the recording run: the whole recording stream and the
	// order-stream share of its chunks.
	RecordLogBytes int64
	OrderLogBytes  int64

	// Real wall-clock nanoseconds of the dynamic phases. The replay's
	// includes the drains of the checkers and the event counter riding
	// it. Unlike the simulated makespans (and every ratio derived from
	// them) these vary run to run and machine to machine; EXPERIMENTS.md
	// documents the methodology.
	RecordWallNS int64
	ReplayWallNS int64

	// The race checkers ride the replay (core.RecordAndCheck), which is
	// gated to the recorded sync order, so they check the execution that
	// was logged. CheckerWallNS is the wall time the epoch checker spent
	// draining the replay's event stream; CheckerRaces is its verdict
	// count — 0 for a correctly instrumented program under the extended
	// synchronization set. CheckersAgree is true when the replay matched
	// and the full-vector oracle, attached to the same stream, reached the
	// identical verdict set; a failed or mismatched replay leaves it false.
	CheckerWallNS int64
	CheckerRaces  int
	CheckersAgree bool

	Timeouts int64

	// ReplayMatches is true when replay bit-matched the recording.
	ReplayMatches bool
	ReplayErr     string

	// Metrics is the observability block exported into the JSON rows:
	// per-weak-lock-site counters, event-stream stats from the replay,
	// and the per-stream log breakdown. Every field is simulated and
	// deterministic (no wall times).
	Metrics *obs.RowMetrics
}

// Measure runs native, record, and the replay that carries the race
// checkers for one benchmark/config at the given worker count. Cells are
// deterministic, so finished measurements are memoized per (bench,
// config, workers) unless Cfg.NoCache is set; the memo is safe for
// concurrent cells.
func (s *Suite) Measure(p *Prepared, configName string, workers int) (*Measurement, error) {
	if s.Cfg.NoCache || s.measured == nil {
		return s.measure(p, configName, workers)
	}
	key := fmt.Sprintf("%s|%s|%d", p.B.Name, configName, workers)
	s.measMu.Lock()
	m, ok := s.measured[key]
	s.measMu.Unlock()
	if ok {
		return m, nil
	}
	m, err := s.measure(p, configName, workers)
	if err != nil {
		return nil, err
	}
	s.measMu.Lock()
	s.measured[key] = m
	s.measMu.Unlock()
	return m, nil
}

// native runs (and memoizes) the uninstrumented baseline for one
// benchmark at a worker count; it is independent of the instrumentation
// config.
func (s *Suite) native(p *Prepared, workers int) (*vm.Result, error) {
	key := fmt.Sprintf("%s|%d", p.B.Name, workers)
	if !s.Cfg.NoCache && s.natives != nil {
		s.natMu.Lock()
		r, ok := s.natives[key]
		s.natMu.Unlock()
		if ok {
			return r, nil
		}
	}
	rcNative := core.RunConfig{World: p.B.EvalWorld(workers), Seed: s.Cfg.Seed, HeapWords: s.Cfg.HeapWords}
	native := p.Prog.RunNative(rcNative)
	if native.Err != nil {
		return nil, fmt.Errorf("%s native: %w", p.B.Name, native.Err)
	}
	if !s.Cfg.NoCache && s.natives != nil {
		s.natMu.Lock()
		s.natives[key] = native
		s.natMu.Unlock()
	}
	return native, nil
}

func (s *Suite) measure(p *Prepared, configName string, workers int) (*Measurement, error) {
	ip, err := p.Instrumented(configName)
	if err != nil {
		return nil, err
	}
	m := &Measurement{Bench: p.B.Name, Config: configName}

	native, err := s.native(p, workers)
	if err != nil {
		return nil, err
	}
	m.NativeMakespan = native.Makespan

	c := ip.RecordAndCheck(core.RunConfig{
		World: p.B.EvalWorld(workers), Seed: s.Cfg.Seed, Table: ip.Table, HeapWords: s.Cfg.HeapWords,
	}, s.Cfg.ReplaySeed, nil)
	m.RecordWallNS = c.RecordWallNS
	if c.RecordErr != nil {
		return nil, fmt.Errorf("%s/%s record: %w", p.B.Name, configName, c.RecordErr)
	}
	recRes, log := c.Record, c.Log
	m.RecordLogBytes = c.Logs.TotalBytes
	m.OrderLogBytes = c.Logs.OrderBytes
	m.RecordMakespan = recRes.Makespan
	m.RecordOverhead = ratio(recRes.Makespan, native.Makespan)
	m.Syscalls = log.InputCount()
	m.SyncOps = log.OrderCount(vm.SyncMutex, vm.SyncBarrier, vm.SyncCond, vm.SyncSpawn)
	m.WLLogs = recRes.WLStats.Logs
	m.MemOps = recRes.Counters.MemOps
	m.WLOps = recRes.WLStats.TotalOps()
	m.LogCycles = recRes.WLStats.LogCycles
	m.Contention = recRes.WLStats.Contention
	m.InputLogKB = float64(c.Logs.InputBytes) / 1024
	m.OrderLogKB = float64(c.Logs.OrderBytes) / 1024
	m.Timeouts = recRes.WLStats.Timeouts

	m.ReplayWallNS = c.ReplayWallNS
	if c.ReplayErr != nil {
		m.ReplayErr = c.ReplayErr.Error()
	} else {
		m.ReplayMakespan = c.Replay.Makespan
		m.ReplayOverhead = ratio(c.Replay.Makespan, native.Makespan)
		m.ReplayMatches = c.Matches
		if !m.ReplayMatches {
			m.ReplayErr = "replay hash mismatch"
		}
	}

	m.CheckerWallNS = c.Epoch.WallNS()
	m.CheckerRaces = c.Epoch.RaceCount()
	m.CheckersAgree = c.Agree

	m.Metrics = &obs.RowMetrics{
		Schema: obs.Schema,
		Makespans: obs.Makespans{
			Native: native.Makespan,
			Record: recRes.Makespan,
			Replay: m.ReplayMakespan,
		},
		WeakLocks: c.WeakLocks(),
		Events:    c.Events,
		Log:       c.Logs,
	}
	return m, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Cell identifies one independent benchmark × config × workers
// measurement.
type Cell struct {
	P       *Prepared
	Config  string
	Workers int
}

// MeasureCells measures every cell, fanning out over Cfg.Parallel workers.
// Results keep the input order (slot-indexed), and the returned error is
// the one from the lowest-index failing cell, so output and failures are
// deterministic regardless of scheduling.
func (s *Suite) MeasureCells(cells []Cell) ([]*Measurement, error) {
	ms := make([]*Measurement, len(cells))
	err := s.forEach(len(cells), func(i int) (err error) {
		ms[i], err = s.Measure(cells[i].P, cells[i].Config, cells[i].Workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// ---------------------------------------------------------------------------
// Table 1

// Table1 renders the benchmark inventory.
func (s *Suite) Table1() string {
	var sb strings.Builder
	sb.WriteString("Table 1: benchmarks and environments (LOC counts MiniC lines incl. mini-libc)\n")
	fmt.Fprintf(&sb, "%-8s %-11s %5s  %-45s %s\n", "app", "class", "LOC", "profile environment", "evaluation environment")
	for _, p := range s.Items {
		fmt.Fprintf(&sb, "%-8s %-11s %5d  %-45s %s\n",
			p.B.Name, p.B.Class, p.B.LOC(), p.B.ProfileEnv, p.B.EvalEnv)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 2

// Table2 measures every benchmark in the "all" configuration at the
// default worker count.
func (s *Suite) Table2() ([]*Measurement, string, error) {
	cells := make([]Cell, len(s.Items))
	for i, p := range s.Items {
		cells[i] = Cell{P: p, Config: "all", Workers: s.Cfg.Workers}
	}
	ms, err := s.MeasureCells(cells)
	if err != nil {
		return nil, "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: record and replay, %d worker threads, all optimizations\n", s.Cfg.Workers)
	fmt.Fprintf(&sb, "%-8s | %8s %8s | %8s %8s %8s %8s | %7s %7s | %9s %9s | %4s\n",
		"app", "syscalls", "syncops", "instrlog", "bblog", "looplog", "funclog",
		"rec.ovh", "rep.ovh", "inlog(KB)", "ordlog(KB)", "rep?")
	for _, m := range ms {
		ok := "ok"
		if !m.ReplayMatches {
			ok = "FAIL"
		}
		fmt.Fprintf(&sb, "%-8s | %8d %8d | %8d %8d %8d %8d | %7.2f %7.2f | %9.1f %9.1f | %4s\n",
			m.Bench, m.Syscalls, m.SyncOps,
			m.WLLogs[weaklock.KindInstr], m.WLLogs[weaklock.KindBB],
			m.WLLogs[weaklock.KindLoop], m.WLLogs[weaklock.KindFunc],
			m.RecordOverhead, m.ReplayOverhead,
			m.InputLogKB, m.OrderLogKB, ok)
	}
	return ms, sb.String(), nil
}

// ---------------------------------------------------------------------------
// Figure 5 / Figure 6

// FigureRow is one benchmark's series over configurations.
type FigureRow struct {
	Bench  string
	Values map[string]float64
}

// Figure5 measures the recording overhead under each configuration.
func (s *Suite) Figure5() ([]FigureRow, string, error) {
	rows, err := s.perConfig(ConfigNames, func(m *Measurement) float64 { return m.RecordOverhead })
	if err != nil {
		return nil, "", err
	}
	return rows, renderFigure("Figure 5: normalized recording overhead (x)", ConfigNames, rows, "%8.2f"), nil
}

// Figure6 measures weak-lock operations as a percentage of dynamic memory
// operations under each configuration.
func (s *Suite) Figure6() ([]FigureRow, string, error) {
	rows, err := s.perConfig(ConfigNames, func(m *Measurement) float64 {
		if m.MemOps == 0 {
			return 0
		}
		return 100 * float64(m.WLOps) / float64(m.MemOps)
	})
	if err != nil {
		return nil, "", err
	}
	return rows, renderFigure("Figure 6: weak-lock ops as % of memory ops", ConfigNames, rows, "%8.3f"), nil
}

// FigureMHP measures recording overhead with and without the static MHP
// refinement at each instrumentation level (Figure-5-style presentation).
func (s *Suite) FigureMHP() ([]FigureRow, string, error) {
	rows, err := s.perConfig(MHPConfigNames, func(m *Measurement) float64 { return m.RecordOverhead })
	if err != nil {
		return nil, "", err
	}
	return rows, renderFigure("Figure 5 + MHP: normalized recording overhead (x)", MHPConfigNames, rows, "%8.2f"), nil
}

func (s *Suite) perConfig(configNames []string, metric func(*Measurement) float64) ([]FigureRow, error) {
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
	var rows []FigureRow
	for i, p := range s.Items {
		row := FigureRow{Bench: p.B.Name, Values: make(map[string]float64)}
		for j, cn := range configNames {
			row.Values[cn] = metric(ms[i*len(configNames)+j])
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func renderFigure(title string, configNames []string, rows []FigureRow, f string) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%-8s", "app")
	for _, cn := range configNames {
		fmt.Fprintf(&sb, " %12s", cn)
	}
	sb.WriteByte('\n')
	var gmean = make(map[string]float64)
	for _, cn := range configNames {
		gmean[cn] = 1
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s", r.Bench)
		for _, cn := range configNames {
			fmt.Fprintf(&sb, "     "+f, r.Values[cn])
			if r.Values[cn] > 0 {
				gmean[cn] *= r.Values[cn]
			}
		}
		sb.WriteByte('\n')
	}
	if len(rows) > 1 {
		fmt.Fprintf(&sb, "%-8s", "geomean")
		for _, cn := range configNames {
			fmt.Fprintf(&sb, "     "+f, pow(gmean[cn], 1/float64(len(rows))))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func pow(x, e float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, e)
}

// ---------------------------------------------------------------------------
// Figure 7

// Fig7Row is the per-kind overhead breakdown for one benchmark, as
// fractions of the native makespan.
type Fig7Row struct {
	Bench      string
	Logging    [weaklock.NumKinds]float64
	Contention [weaklock.NumKinds]float64
}

// Figure7 breaks recording overhead into logging and contention per
// weak-lock granularity (all-optimizations configuration).
func (s *Suite) Figure7() ([]Fig7Row, string, error) {
	cells := make([]Cell, len(s.Items))
	for i, p := range s.Items {
		cells[i] = Cell{P: p, Config: "all", Workers: s.Cfg.Workers}
	}
	ms, err := s.MeasureCells(cells)
	if err != nil {
		return nil, "", err
	}
	var rows []Fig7Row
	for i, p := range s.Items {
		m := ms[i]
		r := Fig7Row{Bench: p.B.Name}
		for k := weaklock.Kind(0); k < weaklock.NumKinds; k++ {
			r.Logging[k] = ratio(m.LogCycles[k], m.NativeMakespan)
			r.Contention[k] = ratio(m.Contention[k], m.NativeMakespan)
		}
		rows = append(rows, r)
	}
	var sb strings.Builder
	sb.WriteString("Figure 7: sources of recording overhead (fraction of native time)\n")
	fmt.Fprintf(&sb, "%-8s", "app")
	for k := weaklock.Kind(0); k < weaklock.NumKinds; k++ {
		fmt.Fprintf(&sb, " %9s-log %9s-wait", k, k)
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s", r.Bench)
		for k := weaklock.Kind(0); k < weaklock.NumKinds; k++ {
			fmt.Fprintf(&sb, " %13.3f %14.3f", r.Logging[k], r.Contention[k])
		}
		sb.WriteByte('\n')
	}
	return rows, sb.String(), nil
}

// ---------------------------------------------------------------------------
// Figure 8

// Fig8Row is the scalability series for one benchmark.
type Fig8Row struct {
	Bench     string
	Overheads map[int]float64 // workers -> record overhead
}

// Figure8 sweeps worker counts (paper: 2, 4, 8 processors).
func (s *Suite) Figure8(workerCounts []int) ([]Fig8Row, string, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{2, 4, 8}
	}
	var cells []Cell
	for _, p := range s.Items {
		for _, wc := range workerCounts {
			cells = append(cells, Cell{P: p, Config: "all", Workers: wc})
		}
	}
	ms, err := s.MeasureCells(cells)
	if err != nil {
		return nil, "", err
	}
	var rows []Fig8Row
	for i, p := range s.Items {
		r := Fig8Row{Bench: p.B.Name, Overheads: make(map[int]float64)}
		for j, wc := range workerCounts {
			r.Overheads[wc] = ms[i*len(workerCounts)+j].RecordOverhead
		}
		rows = append(rows, r)
	}
	var sb strings.Builder
	sb.WriteString("Figure 8: recording overhead vs worker threads (all opts)\n")
	fmt.Fprintf(&sb, "%-8s", "app")
	for _, wc := range workerCounts {
		fmt.Fprintf(&sb, " %7dw", wc)
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s", r.Bench)
		for _, wc := range workerCounts {
			fmt.Fprintf(&sb, " %8.2f", r.Overheads[wc])
		}
		sb.WriteByte('\n')
	}
	return rows, sb.String(), nil
}

// ---------------------------------------------------------------------------
// §7.3 profile sensitivity

// SensitivityRow tracks concurrent-pair saturation per profile run count.
type SensitivityRow struct {
	Bench string
	Pairs []int // pairs observed after run i+1
}

// ProfileSensitivity reproduces the §7.3 study: the number of concurrent
// function pairs observed saturates after a few profile runs.
func ProfileSensitivity(names []string, maxRuns int) ([]SensitivityRow, string, error) {
	if len(names) == 0 {
		names = []string{"pfscan", "water"}
	}
	if maxRuns == 0 {
		maxRuns = 10
	}
	var rows []SensitivityRow
	for _, name := range names {
		b := bench.ByName(name)
		if b == nil {
			return nil, "", fmt.Errorf("unknown benchmark %q", name)
		}
		prog, err := core.Load(b.Name, b.FullSource())
		if err != nil {
			return nil, "", err
		}
		row := SensitivityRow{Bench: name}
		acc := profile.NewConcurrency()
		for run := 0; run < maxRuns; run++ {
			r := run
			one := prog.ProfileNonConcurrency(func(int) *oskit.World {
				return b.ProfileWorld(r)
			}, 1, uint64(run)*1000003+7)
			acc.Merge(one)
			row.Pairs = append(row.Pairs, acc.PairCount())
		}
		rows = append(rows, row)
	}
	var sb strings.Builder
	sb.WriteString("Profile sensitivity (§7.3): concurrent pairs after k profile runs\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s", r.Bench)
		for _, n := range r.Pairs {
			fmt.Fprintf(&sb, " %4d", n)
		}
		sb.WriteByte('\n')
	}
	return rows, sb.String(), nil
}
