// Package core orchestrates the Chimera pipeline (paper Fig. 1):
//
//	parse → type-check → points-to → call graph → RELAY race detection
//	  → profile non-concurrent functions → clique analysis
//	  → symbolic bounds → weak-lock instrumentation
//	  → record on the simulated multicore → replay → verify determinism
//
// It is the programmatic API behind the root chimera package, the CLI
// tools, and the benchmark harness.
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/callgraph"
	"repro/internal/certify"
	"repro/internal/escape"
	"repro/internal/instrument"
	"repro/internal/mhp"
	"repro/internal/minic/ast"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/obs"
	"repro/internal/oskit"
	"repro/internal/pointsto"
	"repro/internal/profile"
	"repro/internal/relay"
	"repro/internal/replay"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/weaklock"
)

// Program is a fully analyzed MiniC program. After Load returns, every
// field is read-only, so one Program can back any number of concurrent
// instrumentation configs, recordings and replays.
type Program struct {
	Name   string
	Source string
	File   *ast.File
	Info   *types.Info
	PTA    *pointsto.Analysis
	CG     *callgraph.Graph
	Races  *relay.Report
	Code   *vm.Program

	// AnalysisWallNS is the wall-clock time Load spent producing this
	// artifact (parse through RELAY). It feeds the harness's
	// analysis_wall_ns accounting: with the analysis cache, the cost is
	// paid once per benchmark and amortized over every config.
	AnalysisWallNS int64

	// Incremental is set by loads with a summary store: what the
	// store-backed analysis reused and recomputed. Nil on storeless loads.
	Incremental *relay.IncrementalStats

	// store, when non-nil, is the summary store that backed the load; the
	// MHP refinement memoizes its verdicts there.
	store *summary.Store

	refineOnce sync.Once
	refined    *relay.Report

	precOnce sync.Once
	prec     *relay.Report

	precBaseOnce sync.Once
	precBase     *relay.Report
}

// LoadOptions parameterizes LoadWith. The zero value is Load's: the
// sequential RELAY summary walk, no summary store, no tracing.
type LoadOptions struct {
	// Workers bounds the goroutines of the RELAY summary walk
	// (relay.AnalyzeParallel); <= 1 walks sequentially. The Program is
	// byte-identical for every value.
	Workers int

	// Store, when non-nil, backs the RELAY walk with a content-addressed
	// summary store (relay.AnalyzeIncremental): function summaries whose
	// keys hit the store are reused, only the dirty SCC cone is
	// recomputed, and the recomputed summaries are stored for the next
	// load. The Program's refinements then memoize their verdicts there
	// too. The Program (race report, MHP prunes, instrumented source) is
	// byte-identical to a storeless load for any store contents — the
	// store can only make it faster, never different.
	Store *summary.Store

	// Tracer, when non-nil, receives one span per stage. Stage attributes
	// carry the headline artifact sizes: SCC/wave counts on the call
	// graph, pair counts on RELAY, and with a Store the reuse counts
	// (reused/recomputed functions, dirty SCCs), which are a pure function
	// of (source, store state) and independent of the worker count.
	Tracer *obs.Tracer
}

// Load parses, checks, analyzes and compiles a program with the
// sequential RELAY summary walk.
func Load(name, src string) (*Program, error) {
	return LoadWith(name, src, LoadOptions{})
}

// LoadWith is Load under explicit options.
func LoadWith(name, src string, o LoadOptions) (*Program, error) {
	start := time.Now()
	tr := o.Tracer
	p, err := reload(name, src, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.Start("points-to")
	p.PTA = pointsto.Analyze(p.Info)
	sp.End()
	sp = tr.Start("callgraph")
	p.CG = callgraph.Build(p.Info, p.PTA)
	sp.SetAttr("sccs", int64(len(p.CG.SCCs))).
		SetAttr("waves", int64(len(p.CG.Waves()))).End()
	sp = tr.Start("relay")
	if o.Store != nil {
		p.Races, p.Incremental = relay.AnalyzeIncremental(p.Info, p.PTA, p.CG, o.Workers, o.Store)
		p.store = o.Store
	} else {
		p.Races = relay.AnalyzeParallel(p.Info, p.PTA, p.CG, o.Workers)
	}
	// No workers attribute here: analysis parallelism is an execution
	// detail, and the stage attributes must be a pure function of the
	// source so masked metrics reports compare byte-identically.
	sp.SetAttr("pairs", int64(len(p.Races.Pairs))).
		SetAttr("racy_funcs", int64(len(p.Races.RacyFuncs))).
		SetAttr("racy_nodes", int64(len(p.Races.RacyNodes)))
	if st := p.Incremental; st != nil {
		sp.SetAttr("reused_funcs", int64(st.ReusedFuncs)).
			SetAttr("recomputed_funcs", int64(st.RecomputedFuncs)).
			SetAttr("dirty_sccs", int64(st.DirtySCCs))
	}
	sp.End()
	p.AnalysisWallNS = time.Since(start).Nanoseconds()
	return p, nil
}

// reload parses, checks and compiles a program: the prefix of LoadWith,
// and all an instrumented program gets, since it is only ever executed,
// never re-analyzed (PTA, CG and Races stay nil).
func reload(name, src string, tr *obs.Tracer) (*Program, error) {
	sp := tr.Start("lex-parse")
	file, err := parser.Parse(name, src)
	sp.SetAttr("bytes", int64(len(src))).End()
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	sp = tr.Start("typecheck")
	info, err := types.Check(file)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("check %s: %w", name, err)
	}
	sp = tr.Start("compile")
	code, err := vm.Compile(info)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	sp.SetAttr("funcs", int64(len(code.Funcs))).End()
	return &Program{Name: name, Source: src, File: file, Info: info, Code: code}, nil
}

// DefaultSeed and DefaultReplaySeed are the evaluation's schedule seeds
// (Table 2): recordings run under one and replays under the other, so a
// replay's determinism has to come from the log.
const (
	DefaultSeed       uint64 = 1234
	DefaultReplaySeed uint64 = 987654
)

// RunConfig parameterizes one execution of a program.
type RunConfig struct {
	World *oskit.World
	Seed  uint64
	Cost  vm.CostModel
	// Table is the weak-lock table for instrumented programs.
	Table *weaklock.Table
	// MaxSteps overrides the default instruction budget if nonzero.
	MaxSteps int64
	// HeapWords overrides the default VM heap size if nonzero.
	HeapWords int64
	// CheckLockOrder enables the weak-lock discipline assertion.
	CheckLockOrder bool
	// MaxThreads overrides the thread limit if nonzero.
	MaxThreads int
	// Sinks are additional batched event sinks (e.g. the observability
	// layer's counters) attached to the run. Attaching any sink turns on
	// event emission for the run.
	Sinks []vm.EventSink
}

func (rc RunConfig) vmConfig() vm.Config {
	return vm.Config{
		Inputs:         vm.LiveInputs{OS: rc.World},
		Cost:           rc.Cost,
		Seed:           rc.Seed,
		WL:             rc.Table,
		MaxSteps:       rc.MaxSteps,
		HeapWords:      rc.HeapWords,
		CheckLockOrder: rc.CheckLockOrder,
		MaxThreads:     rc.MaxThreads,
		Sinks:          rc.Sinks,
	}
}

// RunNative executes the program with no recording (the paper's baseline
// "original time").
func (p *Program) RunNative(rc RunConfig) *vm.Result {
	return vm.Run(p.Code, rc.vmConfig())
}

// ProfileNonConcurrency runs the program multiple times over profile
// worlds and accumulates the set of concurrent function pairs (paper §4.1:
// "we profiled each program 20 times with various inputs").
func (p *Program) ProfileNonConcurrency(mkWorld func(run int) *oskit.World, runs int, seedBase uint64) *profile.Concurrency {
	names := make([]string, len(p.Code.Funcs))
	for i, fn := range p.Code.Funcs {
		names[i] = fn.Name
	}
	conc := profile.NewConcurrency()
	for i := 0; i < runs; i++ {
		col := profile.NewCollector()
		cfg := vm.Config{
			Inputs: vm.LiveInputs{OS: mkWorld(i)},
			Seed:   seedBase + uint64(i)*1000003,
			Funcs:  col,
		}
		r := vm.Run(p.Code, cfg)
		if r.Err != nil {
			// Profile runs on racy programs can fail (e.g. a check
			// tripped by a manifested race); the partial profile is
			// still usable — observed concurrency stands.
			_ = r.Err
		}
		conc.AddRun(col, names)
	}
	return conc
}

// Instrumented is a Chimera-transformed program ready to record.
type Instrumented struct {
	Orig   *Program
	Prog   *Program // the reparsed, recompiled instrumented program
	Table  *weaklock.Table
	Report *instrument.Result

	// Rep is the race report the instrumentation was derived from (the
	// MHP-refined report under "+mhp" configs). The certifier validates
	// the instrumented source against exactly this report.
	Rep *relay.Report

	// Config is the configuration InstrumentAs built this artifact
	// under; the certificate carries its label. It is the zero Config
	// for artifacts InstrumentWith built from an explicit report.
	Config Config

	certOnce sync.Once
	cert     *certify.Certificate
	certWall int64
	certErr  error
}

// Certify runs the static translation validator (internal/certify) over
// the instrumented source: race-pair coverage, weak-lock balance, and
// lock-order deadlock-freedom, recomputed independently of the
// instrumenter's bookkeeping. The certificate is computed once per
// Instrumented and shared — like RefinedRaces it is part of the
// read-only artifact a Cache hands out, safe for concurrent pipeline
// workers. The certificate is labelled with ip.Config. The returned wall
// time is the certification cost of the one computation, in nanoseconds.
func (ip *Instrumented) Certify() (*certify.Certificate, int64, error) {
	ip.certOnce.Do(func() {
		start := time.Now()
		ip.cert, ip.certErr = certify.Certify(ip.Rep, ip.Report.Source, ip.Orig.Name, ip.Config.String())
		ip.certWall = time.Since(start).Nanoseconds()
	})
	return ip.cert, ip.certWall, ip.certErr
}

// Instrument applies the weak-lock transformation and recompiles.
func (p *Program) Instrument(conc *profile.Concurrency, opts instrument.Options) (*Instrumented, error) {
	return p.InstrumentWith(p.Races, conc, opts)
}

// RefineMHP applies the static may-happen-in-parallel refinement
// (internal/mhp) to the program's race report, returning a copy with
// provably non-concurrent pairs pruned. p.Races itself is untouched, so
// the paper-faithful unrefined report stays available.
func (p *Program) RefineMHP() *relay.Report {
	return mhp.Refine(p.Races)
}

// RefinedRaces returns the MHP-refined race report, computed once and
// shared; it is safe to call from concurrent pipeline workers. The report
// is part of the read-only analysis artifact a Cache hands out.
//
// On incrementally loaded programs the refinement verdicts are memoized
// in the summary store under the whole-program content key: a later load
// of a byte-identical (modulo formatting) program replays the stored
// verdicts through relay.ApplyMHPFacts instead of re-running the MHP
// analysis. Replay is fail-closed — any pair mismatch falls back to the
// real analysis — and reproduces the refined report byte-identically,
// since the verdict sequence fully determines RefineMHP's output.
func (p *Program) RefinedRaces() *relay.Report {
	p.refineOnce.Do(func() {
		if p.store != nil && p.Incremental != nil && p.Incremental.Index != nil {
			if facts, ok := p.store.GetMHP(p.Incremental.ProgramKey()); ok {
				if refined, applied := relay.ApplyMHPFacts(p.Races, facts, p.Incremental.Index); applied {
					p.refined = refined
					p.Incremental.MHPFactsReused = true
					return
				}
			}
			p.refined = p.RefineMHP()
			if facts, ok := relay.EncodeMHPFacts(p.Races, p.refined, p.Incremental.Index); ok {
				p.store.PutMHP(p.Incremental.ProgramKey(), facts)
			}
			return
		}
		p.refined = p.RefineMHP()
	})
	return p.refined
}

// PrecisionRaces returns the race report with both the MHP refinement and
// the static precision layer (internal/escape: thread-escape, must-lockset
// sharpening, read-only sharing) applied, computed once and shared. Like
// RefinedRaces it is part of the read-only analysis artifact a Cache hands
// out, safe for concurrent pipeline workers.
func (p *Program) PrecisionRaces() *relay.Report {
	p.precOnce.Do(func() {
		p.prec = p.precisionOver(p.RefinedRaces(), "precision+mhp")
	})
	return p.prec
}

// PrecisionRacesBase is PrecisionRaces without the MHP refinement: the
// precision layer applied directly to the unrefined RELAY report, for
// configs that run paper-faithful RELAY plus precision only.
func (p *Program) PrecisionRacesBase() *relay.Report {
	p.precBaseOnce.Do(func() {
		p.precBase = p.precisionOver(p.Races, "precision")
	})
	return p.precBase
}

// Report returns the race report a configuration instruments: the full
// RELAY report, the MHP-refined one with mhp, and with precision the
// static precision layer applied over either. Every variant is computed
// once and shared.
func (p *Program) Report(mhp, precision bool) *relay.Report {
	switch {
	case mhp && precision:
		return p.PrecisionRaces()
	case precision:
		return p.PrecisionRacesBase()
	case mhp:
		return p.RefinedRaces()
	}
	return p.Races
}

// precisionOver applies the precision layer to a base report, memoizing
// verdicts in the summary store on incrementally loaded programs. Each
// (layer, base) combination stores under its own key derived from the
// whole-program content key — a new fact kind under a new address, so
// byte-identity of the pre-existing summary and MHP artifacts is
// preserved. Replay is fail-closed: any pair mismatch falls back to the
// real analysis.
func (p *Program) precisionOver(base *relay.Report, label string) *relay.Report {
	if p.store != nil && p.Incremental != nil && p.Incremental.Index != nil {
		key := summary.DeriveKey(p.Incremental.ProgramKey(), label)
		if facts, ok := p.store.GetMHP(key); ok {
			if refined, applied := relay.ApplyPrecisionFacts(base, facts, p.Incremental.Index); applied {
				p.Incremental.PrecisionFactsReused = true
				return refined
			}
		}
		refined := escape.Refine(base)
		if facts, ok := relay.EncodePrecisionFacts(base, refined, p.Incremental.Index); ok {
			p.store.PutMHP(key, facts)
		}
		return refined
	}
	return escape.Refine(base)
}

// InstrumentWith is Instrument with an explicit race report — typically
// the result of RefineMHP, so statically pruned pairs get no weak locks.
func (p *Program) InstrumentWith(rep *relay.Report, conc *profile.Concurrency, opts instrument.Options) (*Instrumented, error) {
	res, err := instrument.Instrument(rep, conc, opts)
	if err != nil {
		return nil, fmt.Errorf("instrument %s: %w", p.Name, err)
	}
	ip, err := reload(p.Name+".chimera", res.Source, nil)
	if err != nil {
		return nil, fmt.Errorf("reload instrumented %s: %w\n--- source ---\n%s", p.Name, err, res.Source)
	}
	return &Instrumented{Orig: p, Prog: ip, Table: res.Table, Report: res, Rep: rep}, nil
}

// RecordTo records the instrumented program; see Record.
func (ip *Instrumented) RecordTo(rc RunConfig, w io.Writer) (*vm.Result, *replay.Log, *replay.LogWriter) {
	return Record(ip.Prog, ip.Table, rc, w)
}

// Replay re-executes the instrumented program against an in-memory
// recording; see Replay.
func (ip *Instrumented) Replay(log *replay.Log, rc RunConfig) (*vm.Result, error) {
	return Replay(ip.Prog, ip.Table, replay.NewReplayer(log, rc.Cost), rc)
}

// Record executes a program while logging inputs and sync order; table is
// its weak-lock table (nil records the DRF-only baseline on an
// uninstrumented program). It returns the run result and the log. With a
// non-nil w the log is also streamed to w in the chunked on-disk format as
// records are committed; the returned LogWriter is then already closed,
// and its byte counters attribute the compressed stream to inputs vs sync
// order (nil when w is nil). Streaming adds no simulated cost — the cost
// model already charges for logging.
func Record(p *Program, table *weaklock.Table, rc RunConfig, w io.Writer) (*vm.Result, *replay.Log, *replay.LogWriter) {
	rec := replay.NewRecorder(rc.World, rc.Cost)
	var lw *replay.LogWriter
	if w != nil {
		lw = replay.NewLogWriter(w)
		rec.AttachWriter(lw)
	}
	cfg := rc.vmConfig()
	cfg.Inputs = rec
	cfg.Monitor = rec
	cfg.WL = table
	r := vm.Run(p.Code, cfg)
	if lw != nil {
		if err := lw.Close(); err != nil && r.Err == nil {
			r.Err = fmt.Errorf("record stream: %w", err)
		}
	}
	return r, rec.Log(), lw
}

// Replay re-executes a program against a recording fed by rep — built by
// replay.NewReplayer over an in-memory Log, or by replay.NewStreamReplayer
// over a CHIMLOG2 stream such as an on-disk spool. The seed may differ
// from the recording seed — determinism must come from the log — and the
// replay must consume every logged record.
//
// Recordings containing forced weak-lock preemptions (timeouts) replay
// too: each preemption was logged with a deterministic anchor (the owner's
// retired-instruction and committed-sync counts — the role DoublePlay's
// instruction-pointer/branch-count pair plays in §2.3), and the VM injects
// it at exactly that point. This goes beyond the paper, which left the
// replay side unported. Organic timeouts are disabled during replay so the
// only preemptions are the recorded ones.
func Replay(p *Program, table *weaklock.Table, rep *replay.Replayer, rc RunConfig) (*vm.Result, error) {
	cfg := rc.vmConfig()
	cfg.Inputs = rep
	cfg.Monitor = rep
	cfg.WL = table
	cfg.DisableTimeouts = true
	r := vm.Run(p.Code, cfg)
	if rep.Err() != nil {
		return r, rep.Err()
	}
	if r.Err != nil {
		return r, r.Err
	}
	if !rep.Drained() {
		return r, fmt.Errorf("replay divergence: log not fully consumed")
	}
	return r, nil
}

// Checked is the outcome of RecordAndCheck: one recording, its replay
// with both race checkers and an event counter on the replay's event
// stream, and the verdicts.
type Checked struct {
	// Record is the recording run; RecordErr is its failure (Record.Err),
	// in which case nothing was replayed and every later field is zero.
	// Logs is the LogWriter's accounting of the CHIMLOG2 stream written
	// to the caller's writer (zero without a writer).
	Record    *vm.Result
	RecordErr error
	Log       *replay.Log
	Logs      obs.LogStreams

	// Replay is the replay run and ReplayErr its failure; Matches is true
	// when the replay completed and bit-matched the recording.
	Replay    *vm.Result
	ReplayErr error
	Matches   bool

	// Epoch and Vector consumed the replay's event stream; Agree is true
	// when the replay matched and their verdict sets are identical (a
	// partial replay yields no clean verdict). Events counts that stream.
	Epoch  *trace.EpochChecker
	Vector *trace.VectorChecker
	Agree  bool
	Events *obs.Events

	// Wall-clock nanoseconds of the two runs; the replay's includes the
	// sinks' drains.
	RecordWallNS int64
	ReplayWallNS int64

	table *weaklock.Table
}

// RecordAndCheck is the dynamic stage of the pipeline. It records the
// instrumented program under rc, streaming the log to w when w is
// non-nil, then replays the recording under replaySeed with the epoch
// checker, the full-vector oracle and an event counter attached, and
// compares the two runs' Hash64. Replay is gated to the recorded sync
// order, so the checkers see the happens-before order of the execution
// that was logged; no third run is needed to feed them.
//
// Each stage gets one span on tr (nil turns tracing off): record, replay,
// and dynamic-check, which only reads the verdicts.
func (ip *Instrumented) RecordAndCheck(rc RunConfig, replaySeed uint64, w io.Writer, tr *obs.Tracer) *Checked {
	c := &Checked{table: ip.Table}
	var cw *countWriter
	var out io.Writer
	if w != nil {
		cw = &countWriter{w: w}
		out = cw
	}
	sp := tr.Start("record")
	start := time.Now()
	var lw *replay.LogWriter
	c.Record, c.Log, lw = ip.RecordTo(rc, out)
	c.RecordWallNS = time.Since(start).Nanoseconds()
	if lw != nil {
		st := lw.Stats()
		c.Logs = obs.LogStreams{
			TotalBytes:    cw.n,
			InputChunks:   st.InputChunks,
			OrderChunks:   st.OrderChunks,
			InputRecords:  st.InputRecords,
			OrderRecords:  st.OrderRecords,
			InputRawBytes: st.InputRawBytes,
			OrderRawBytes: st.OrderRawBytes,
			InputBytes:    st.InputBytes,
			OrderBytes:    st.OrderBytes,
		}
	}
	if tr != nil {
		sp.SetAttr("makespan", c.Record.Makespan).
			SetAttr("input_records", int64(c.Log.InputCount())).
			SetAttr("order_records", int64(c.Log.OrderCount())).
			SetAttr("log_bytes", c.Logs.TotalBytes)
	}
	sp.End()
	if c.RecordErr = c.Record.Err; c.RecordErr != nil {
		return c
	}

	c.Epoch, c.Vector = trace.NewChecker(0), trace.NewVectorChecker(0)
	counter := &obs.EventCounter{}
	rrc := rc
	rrc.Seed = replaySeed
	rrc.Sinks = append([]vm.EventSink{counter, c.Epoch, c.Vector}, rc.Sinks...)
	sp = tr.Start("replay")
	start = time.Now()
	c.Replay, c.ReplayErr = ip.Replay(c.Log, rrc)
	c.ReplayWallNS = time.Since(start).Nanoseconds()
	c.Matches = c.ReplayErr == nil && c.Replay.Hash64() == c.Record.Hash64()
	match := int64(0)
	if c.Matches {
		match = 1
	}
	if c.ReplayErr == nil {
		sp.SetAttr("makespan", c.Replay.Makespan)
	}
	sp.SetAttr("match", match).End()

	sp = tr.Start("dynamic-check")
	c.Agree = c.Matches && trace.SameVerdicts(c.Epoch.Races(), c.Vector.Races())
	c.Events = counter.Events(c.Replay.Counters.EventsEmitted, c.Replay.Counters.EventBatches)
	sp.SetAttr("races", int64(c.Epoch.RaceCount())).
		SetAttr("events", c.Events.Emitted).End()
	return c
}

// WeakLocks is the recording's weak-lock section of the metrics: the
// per-site counters plus the order-log totals they are checked against.
func (c *Checked) WeakLocks() *obs.WeakLocks {
	wl := obs.WeakLocksFrom(c.table, c.Record.WLSites)
	wl.Timeouts = c.Record.WLStats.Timeouts
	wl.OrderLogEntries = int64(c.Log.OrderCount(vm.SyncWeakLock))
	for key, recs := range c.Log.Orders {
		if key.Class != vm.SyncWeakLock {
			continue
		}
		for _, r := range recs {
			if r.Kind == vm.EvWLAcquire {
				wl.AcquireOrderEntries++
			}
		}
	}
	return wl
}

// countWriter counts the bytes it passes on to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// VerifyDeterministicReplay records with one seed and replays with another;
// it returns an error unless the replay bit-matches the recording.
func (ip *Instrumented) VerifyDeterministicReplay(world func() *oskit.World, recSeed, repSeed uint64) error {
	rc := RunConfig{World: world(), Seed: recSeed, Table: ip.Table}
	recRes, log, _ := ip.RecordTo(rc, nil)
	if recRes.Err != nil {
		return fmt.Errorf("record failed: %w", recRes.Err)
	}
	repRes, err := ip.Replay(log, RunConfig{World: world(), Seed: repSeed, Table: ip.Table})
	if err != nil {
		return fmt.Errorf("replay failed: %w", err)
	}
	if recRes.Hash64() != repRes.Hash64() {
		return fmt.Errorf("replay diverged: recorded hash %x, replayed hash %x\nrecorded output: %q\nreplayed output: %q",
			recRes.Hash64(), repRes.Hash64(), recRes.Output, repRes.Output)
	}
	return nil
}

// RunDeterministic executes an instrumented program under the
// deterministic-execution arbiter (the paper's §9 vision: "future work may
// be able to leverage the data-race-freedom provided by Chimera to provide
// stronger guarantees such as ... deterministic execution"). The result is
// a pure function of the program and its input world: independent of the
// schedule seed and of the cost model, with no recording involved.
// Organic weak-lock timeouts are disabled — time-based preemption would
// reintroduce timing dependence — so programs that block while holding a
// weak-lock deadlock visibly instead.
func (ip *Instrumented) RunDeterministic(rc RunConfig) *vm.Result {
	cfg := rc.vmConfig()
	cfg.WL = ip.Table
	cfg.Deterministic = true
	cfg.DisableTimeouts = true
	return vm.Run(ip.Prog.Code, cfg)
}

// CheckDynamicRaces runs the program under the happens-before race checker
// (FastTrack-style adaptive epochs) and returns the distinct races
// observed. For instrumented programs pass the weak-lock table so
// weak-lock edges count as synchronization.
func CheckDynamicRaces(p *Program, table *weaklock.Table, rc RunConfig) ([]trace.Race, *vm.Result) {
	chk := trace.NewChecker(0)
	r := CheckDynamicRacesWith(p, table, rc, chk)
	return chk.Races(), r
}

// CheckDynamicRacesWith runs the program with explicit race checkers
// attached as batched event sinks — the epoch checker for production, the
// full-vector oracle for differential testing. Passing both runs them over
// the one event stream of a single execution.
func CheckDynamicRacesWith(p *Program, table *weaklock.Table, rc RunConfig, chks ...trace.RaceChecker) *vm.Result {
	cfg := rc.vmConfig()
	cfg.WL = table
	for _, chk := range chks {
		cfg.Sinks = append(cfg.Sinks, chk)
	}
	return vm.Run(p.Code, cfg)
}
