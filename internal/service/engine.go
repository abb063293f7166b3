package service

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oskit"
	"repro/internal/pool"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/summary"
	"repro/internal/vm"
)

// EngineConfig sizes an Engine. Zero values select the defaults noted.
type EngineConfig struct {
	// Shards is the worker-shard count (default 4). Jobs are routed by
	// spec hash, so identical re-submissions serialize on one shard.
	Shards int
	// Depth is the per-shard queue capacity (default 256). A full shard
	// rejects with pool.ErrFull rather than blocking the submitter.
	Depth int
	// SpoolDir holds CHIMLOG2 spools (default: the OS temp dir). One
	// file per record/replay-verify job, named by job ID.
	SpoolDir string
	// JobTimeout bounds each job's execution (default 2m). A job still
	// running at the deadline is marked failed and its shard moves on;
	// this is also what bounds graceful drain.
	JobTimeout time.Duration
	// Telemetry receives job/stage latency and spool-byte observations
	// (default: a fresh registry with the four job kinds pre-registered).
	Telemetry *obs.Telemetry
	// Logger receives structured job-lifecycle records. Nil is the
	// disabled logger: no output, no allocation.
	Logger *obs.Logger
	// TraceRing is how many recent job traces /debug/traces retains
	// (default 64).
	TraceRing int
}

// Engine is the job engine behind chimerad: a sharded worker pool
// (internal/pool) executing Jobs against per-tenant environments that
// share one content-addressed summary store through tenant-prefixed
// views. It is safe for concurrent use.
type Engine struct {
	cfg    EngineConfig
	store  *summary.Store
	pool   *pool.Sharded
	tel    *obs.Telemetry
	log    *obs.Logger
	traces *traceRing

	mu       sync.Mutex
	tenants  map[string]*tenantState
	jobs     map[string]*Job // unfinished jobs and the kept finished ones
	finished []*Job          // kept finished jobs, in the order they finished
	done     int64           // jobs ever finished in StateDone
	failed   int64           // jobs ever finished in StateFailed
	seq      int
	draining bool
}

// maxFinishedJobs bounds the finished jobs an engine keeps. Past it, the
// job that finished first is forgotten: its ID answers as unknown and its
// spool is deleted. Queued, running and awaiting-log jobs are always kept.
const maxFinishedJobs = 1024

// tenantState is one tenant's slice of the engine: its own whole-program
// cache and its view of the shared summary store. The view rewrites
// every key through summary.DeriveKey with the tenant label, so tenants
// can never collide on — or observe — each other's entries, while the
// per-view counters give the tenant's own hit/miss traffic.
type tenantState struct {
	name string
	env  *Env
	jobs int64
}

// NewEngine starts an engine with cfg's shards running.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 256
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = os.TempDir()
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = obs.NewTelemetry(
			string(JobAnalyze), string(JobRecord),
			string(JobReplayVerify), string(JobGenPipeline))
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 64
	}
	return &Engine{
		cfg:     cfg,
		store:   summary.NewStore(),
		pool:    pool.NewSharded(cfg.Shards, cfg.Depth),
		tel:     cfg.Telemetry,
		log:     cfg.Logger,
		traces:  newTraceRing(cfg.TraceRing),
		tenants: make(map[string]*tenantState),
		jobs:    make(map[string]*Job),
	}
}

// tenant returns (creating on first use) the named tenant. e.mu held.
func (e *Engine) tenant(name string) *tenantState {
	t, ok := e.tenants[name]
	if !ok {
		view := e.store.View(name)
		t = &tenantState{
			name: name,
			env:  &Env{Cache: core.NewCache(view), Store: view},
		}
		e.tenants[name] = t
	}
	return t
}

// envFor returns the tenant's environment.
func (e *Engine) envFor(name string) *Env {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tenant(name).env
}

// Submit validates, registers and schedules a job. Replay-verify jobs
// expecting an upload are registered in awaiting-log and scheduled by
// AttachLog instead. The returned error is pool.ErrDraining when the
// engine is shutting down and pool.ErrFull when the routed shard's
// queue is at capacity.
func (e *Engine) Submit(spec *JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hash := spec.Hash()

	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, pool.ErrDraining
	}
	e.seq++
	job := &Job{
		id:      fmt.Sprintf("j%06d-%s", e.seq, hash[:12]),
		seq:     e.seq,
		spec:    spec,
		hash:    hash,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	job.spool = filepath.Join(e.cfg.SpoolDir, job.id+".clog")
	job.traceID = traceIDFor(spec, e.seq, hash)
	e.jobs[job.id] = job
	e.tenant(spec.Tenant).jobs++
	e.mu.Unlock()

	// The job's span tree starts here: an open "request" root carrying
	// the trace identity, then the wait phase ("awaiting-log" for jobs
	// expecting an upload, "queue-wait" otherwise) as its first child.
	job.tracer = obs.NewTracer()
	job.rootSpan = job.tracer.Start("request").
		SetStr("trace_id", job.traceID).
		SetStr("job_id", job.id).
		SetStr("kind", string(spec.Kind)).
		SetStr("tenant", spec.Tenant)
	e.log.Info("job_submitted",
		obs.Str("trace_id", job.traceID), obs.Str("job", job.id),
		obs.Str("kind", string(spec.Kind)), obs.Str("tenant", spec.Tenant))

	if spec.Kind == JobReplayVerify && spec.LogUpload {
		job.waitSpan = job.tracer.Start("awaiting-log")
		job.mu.Lock()
		job.state = StateAwaitingLog
		job.mu.Unlock()
		return job, nil
	}
	job.waitSpan = job.tracer.Start("queue-wait")
	if err := e.schedule(job); err != nil {
		return job, err
	}
	return job, nil
}

// traceIDFor resolves a job's trace identity: the spec's, the embedded
// request's, or a server-minted one derived from the submission
// sequence number and spec hash.
func traceIDFor(spec *JobSpec, seq int, hash string) string {
	if spec.TraceID != "" {
		return spec.TraceID
	}
	if spec.Request != nil && spec.Request.TraceID != "" {
		return spec.Request.TraceID
	}
	return fmt.Sprintf("t%06d-%s", seq, hash[:8])
}

// schedule enqueues the job on its hash-routed shard.
func (e *Engine) schedule(job *Job) error {
	var key uint64
	if b, err := hex.DecodeString(job.hash[:16]); err == nil {
		key = binary.BigEndian.Uint64(b)
	}
	if err := e.pool.Submit(key, func() { e.runJob(job) }); err != nil {
		job.complete(nil, fmt.Sprintf("submit: %v", err))
		job.waitSpan.End()
		job.rootSpan.End()
		e.retire(job)
		return err
	}
	return nil
}

// ErrUnknownJob and ErrNotAwaitingLog classify AttachLog/OpenLog
// failures for the transport layer (404 vs 409).
var (
	ErrUnknownJob     = errors.New("unknown job")
	ErrNotAwaitingLog = errors.New("job is not awaiting a log")
)

// AttachLog streams a CHIMLOG2 upload into an awaiting-log job's spool
// (constant memory — an io.Copy to disk) and schedules the job. It
// returns the byte count spooled.
func (e *Engine) AttachLog(id string, r io.Reader) (int64, error) {
	job, ok := e.Job(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	job.mu.Lock()
	if job.state != StateAwaitingLog {
		state := job.state
		job.mu.Unlock()
		return 0, fmt.Errorf("%w: %s (state %s)", ErrNotAwaitingLog, id, state)
	}
	job.state = StateQueued // claimed: a concurrent second upload fails above
	job.mu.Unlock()

	job.waitSpan.End() // awaiting-log is over; the upload is here
	sw := job.tracer.Start("spool-write")
	f, err := os.Create(job.spool)
	if err != nil {
		sw.End()
		job.complete(nil, fmt.Sprintf("log spool: %v", err))
		job.rootSpan.End()
		e.retire(job)
		return 0, err
	}
	n, err := io.Copy(f, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	sw.SetAttr("bytes", n).End()
	e.tel.AddSpoolBytes(n, 0)
	if err != nil {
		job.complete(nil, fmt.Sprintf("log upload: %v", err))
		job.rootSpan.End()
		e.retire(job)
		return n, err
	}
	job.waitSpan = job.tracer.Start("queue-wait")
	if err := e.schedule(job); err != nil {
		return n, err
	}
	return n, nil
}

// OpenLog opens a job's CHIMLOG2 spool for streaming out. The caller
// closes the returned file.
func (e *Engine) OpenLog(id string) (*os.File, error) {
	job, ok := e.Job(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return os.Open(job.spool)
}

// Job returns a registered job by ID.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Views snapshots every kept job in submission order.
func (e *Engine) Views() []JobView {
	e.mu.Lock()
	jobs := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	return views
}

// Traces returns the retained trace ring, newest first.
func (e *Engine) Traces() []*TraceRecord { return e.traces.list() }

// Trace returns the newest retained trace whose trace ID or job ID
// matches.
func (e *Engine) Trace(id string) (*TraceRecord, bool) { return e.traces.find(id) }

// countReader counts bytes read through it (re-reads after a seek
// count again: the counter is I/O traffic, not file size).
type countReader struct {
	r io.ReadSeeker
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) Seek(offset int64, whence int) (int64, error) {
	return c.r.Seek(offset, whence)
}

// Draining reports whether the engine has stopped admitting jobs.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Drain stops admission and waits up to timeout for queued and running
// jobs to finish, reporting whether the pool drained completely. Each
// in-flight job is individually bounded by JobTimeout, so a drain
// timeout of at least JobTimeout plus queue slack always succeeds.
func (e *Engine) Drain(timeout time.Duration) bool {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
	stop := make(chan struct{})
	t := time.AfterFunc(timeout, func() { close(stop) })
	defer t.Stop()
	return e.pool.Drain(stop)
}

// Metrics snapshots the engine: job counts by state, pool occupancy, and
// per-tenant cache and summary-store traffic with hit ratios. Retired
// jobs are counted by retire, so done and failed cover forgotten jobs
// too; the rest are counted by their current state.
func (e *Engine) Metrics() *obs.ServiceMetrics {
	e.mu.Lock()
	m := &obs.ServiceMetrics{Schema: 2, Draining: e.draining}
	m.Jobs.Done, m.Jobs.Failed = e.done, e.failed
	var jobs []*Job
	for _, j := range e.jobs {
		if !j.retired {
			jobs = append(jobs, j)
		}
	}
	// Copies, taken under e.mu: Submit bumps a tenant's jobs count.
	tenants := make([]tenantState, 0, len(e.tenants))
	for _, t := range e.tenants {
		tenants = append(tenants, *t)
	}
	e.mu.Unlock()

	for _, j := range jobs {
		switch j.View().State {
		case StateQueued:
			m.Jobs.Queued++
		case StateAwaitingLog:
			m.Jobs.AwaitingLog++
		case StateRunning:
			m.Jobs.Running++
		case StateDone:
			m.Jobs.Done++
		case StateFailed:
			m.Jobs.Failed++
		}
	}
	pending, completed := e.pool.Stats()
	m.Pool = obs.PoolCounts{Shards: e.pool.Shards(), Pending: pending, Completed: completed}
	queued, running := e.pool.ShardStats()
	m.Shards = make([]obs.ShardMetrics, len(queued))
	for i := range queued {
		m.Shards[i] = obs.ShardMetrics{Shard: i, QueueDepth: queued[i], InFlight: running[i]}
	}
	m.Telemetry = e.tel.Snapshot()

	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	for _, t := range tenants {
		hits, partial, misses := t.env.Cache.Stats()
		st := t.env.Store.Stats()
		m.Tenants = append(m.Tenants, obs.TenantMetrics{
			Tenant:        t.name,
			Jobs:          t.jobs,
			Cache:         obs.CacheStats{Hits: hits, PartialHits: partial, Misses: misses},
			CacheHitRatio: obs.Ratio(hits+partial, hits+partial+misses),
			SummaryStore: obs.SummaryStoreStats{
				Hits: st.Hits, Misses: st.Misses, Puts: st.Puts,
				Evictions: st.Evictions, Entries: st.Entries,
				MHPHits: st.MHPHits, MHPMisses: st.MHPMisses,
			},
			SummaryHitRatio: obs.Ratio(st.Hits, st.Hits+st.Misses),
		})
	}
	return m
}

// runJob executes one job on its shard with the configured timeout. The
// executor runs in a helper goroutine so a wedged job fails at the
// deadline and frees the shard; a late result from the abandoned
// executor is dropped by Job.complete.
func (e *Engine) runJob(job *Job) {
	job.waitSpan.End()
	job.mu.Lock()
	job.queueWaitNS = job.waitSpan.WallNS()
	job.mu.Unlock()
	job.setRunning()

	run := job.tracer.Start("run")
	done := make(chan *JobResult, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- &JobResult{ExitCode: ExitFailure, Stderr: fmt.Sprintf("job panic: %v\n", p)}
			}
		}()
		done <- e.execute(job)
	}()
	select {
	case res := <-done:
		run.End()
		job.mu.Lock()
		job.runNS = run.WallNS()
		job.mu.Unlock()
		// Measure the verdict's wire encoding as its own span: for
		// analyze jobs with large stdout this is real request time.
		enc := job.tracer.Start("verdict-encode")
		if b, err := json.Marshal(res); err == nil {
			enc.SetAttr("bytes", int64(len(b)))
		}
		enc.End()
		job.rootSpan.SetAttr("exit_code", int64(res.ExitCode)).End()
		if job.spec.WantTrace {
			if nodes := job.tracer.Nodes(); len(nodes) > 0 {
				res.Trace = nodes[0]
			}
		}
		job.complete(res, "") // nonzero exits are verdicts, not engine failures
	case <-time.After(e.cfg.JobTimeout):
		msg := fmt.Sprintf("job timed out after %s", e.cfg.JobTimeout)
		job.complete(nil, msg)
		run.End() // the abandoned executor may still add spans; snapshots won't see them
		job.mu.Lock()
		job.runNS = run.WallNS()
		job.mu.Unlock()
		job.rootSpan.SetStr("error", msg).End()
	}
	e.retire(job)
}

// retire counts a finished job, keeps it among the last maxFinishedJobs
// finished, and flushes its observability: job and stage durations into
// the telemetry histograms, the span tree into the /debug/traces ring,
// and one structured lifecycle record into the log. Jobs that never
// started (queue rejection, upload failure) keep their trace and log
// record but do not pollute the latency histograms. Every path that
// finishes a job calls retire once, after Job.complete.
func (e *Engine) retire(job *Job) {
	v := job.View()
	e.mu.Lock()
	job.retired = true
	if v.State == StateFailed {
		e.failed++
	} else {
		e.done++
	}
	e.finished = append(e.finished, job)
	var evicted *Job
	if len(e.finished) > maxFinishedJobs {
		evicted = e.finished[0]
		e.finished[0] = nil
		e.finished = e.finished[1:]
		delete(e.jobs, evicted.id)
	}
	e.mu.Unlock()
	if evicted != nil {
		// Jobs that wrote no spool have none to remove.
		_ = os.Remove(evicted.spool)
	}
	nodes := job.tracer.Nodes()
	var root *obs.SpanNode
	if len(nodes) > 0 {
		root = nodes[0]
	}
	if v.Started != nil {
		e.tel.ObserveJob(string(v.Kind), v.RunNS)
		obs.Walk(nodes, func(n *obs.SpanNode) { e.tel.ObserveStage(n.Name, n.WallNS()) })
	}
	e.traces.push(&TraceRecord{
		TraceID:     v.TraceID,
		JobID:       v.ID,
		Kind:        v.Kind,
		Tenant:      v.Tenant,
		State:       v.State,
		QueueWaitNS: v.QueueWaitNS,
		RunNS:       v.RunNS,
		Spans:       root,
	})
	if !e.log.Enabled(obs.LevelInfo) {
		return
	}
	event := "job_done"
	exit := int64(0)
	if v.Result != nil {
		exit = int64(v.Result.ExitCode)
	}
	fields := []obs.Field{
		obs.Str("trace_id", v.TraceID),
		obs.Str("job", v.ID),
		obs.Str("kind", string(v.Kind)),
		obs.Str("tenant", v.Tenant),
		obs.Str("state", string(v.State)),
		obs.Int("exit_code", exit),
		obs.Int("queue_wait_ns", v.QueueWaitNS),
		obs.Int("run_ns", v.RunNS),
		obs.RawJSON("stages", stageDurationsJSON(root)),
	}
	if v.State == StateFailed {
		event = "job_failed"
		fields = append(fields, obs.Str("error", v.Error))
	}
	e.log.Info(event, fields...)
}

// stageDurationsJSON renders the request's top two span levels — the
// request phases and the pipeline stages under "run" — as one compact
// JSON object of nanosecond durations, in span start order.
func stageDurationsJSON(root *obs.SpanNode) []byte {
	var b bytes.Buffer
	b.WriteByte('{')
	first := true
	emit := func(path string, ns int64) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:%d", path, ns)
	}
	if root != nil {
		for _, c := range root.Children {
			emit(c.Name, c.WallNS())
			if c.Name == "run" {
				for _, s := range c.Children {
					emit("run/"+s.Name, s.WallNS())
				}
			}
		}
	}
	b.WriteByte('}')
	return b.Bytes()
}

// execute dispatches on the job kind.
func (e *Engine) execute(job *Job) *JobResult {
	spec := job.spec
	switch spec.Kind {
	case JobAnalyze:
		return e.execAnalyze(job, spec)
	case JobRecord:
		return e.execRecord(job, spec)
	case JobReplayVerify:
		return e.execReplayVerify(job, spec)
	case JobGenPipeline:
		return execGen(job.tracer, spec)
	}
	return &JobResult{ExitCode: ExitUsage, Stderr: fmt.Sprintf("unknown job kind %q\n", spec.Kind)}
}

// execAnalyze runs the canonical racecheck pipeline against the tenant's
// environment. The captured stdout/stderr are byte-identical to the
// offline CLI on the same request: RunRequest is the single verdict
// path, and the tenant caches are proven pure accelerators.
func (e *Engine) execAnalyze(job *Job, spec *JobSpec) *JobResult {
	env := e.envFor(spec.Tenant)
	// Shallow copy: the spec (and its request) may be shared across
	// re-submissions, but the tracer is strictly per-job.
	req := *spec.Request
	req.Tracer = job.tracer
	var out, errOut bytes.Buffer
	code := RunRequest(&req, env, &out, &errOut)
	return &JobResult{ExitCode: code, Stdout: out.String(), Stderr: errOut.String()}
}

// instrumentFor loads the program a record or replay-verify job
// describes through the tenant's cache and instruments it under config.
func (e *Engine) instrumentFor(tenant, name, source string, config core.Config) (*core.Instrumented, error) {
	env := e.envFor(tenant)
	if name == "" {
		name = "prog"
	}
	prog, err := env.loadProgram(name, source, core.LoadOptions{})
	if err != nil {
		return nil, err
	}
	return prog.InstrumentAs(config, nil, nil)
}

// execRecord instruments the program and records one execution, with the
// CHIMLOG2 log streamed to the job's disk spool as records commit.
func (e *Engine) execRecord(job *Job, spec *JobSpec) *JobResult {
	sp := job.tracer.Start("instrument")
	ip, err := e.instrumentFor(spec.Tenant, spec.Name, spec.Source, spec.config())
	sp.End()
	if err != nil {
		return &JobResult{ExitCode: ExitFailure, Stderr: fmt.Sprintf("record: %v\n", err)}
	}
	// The record span covers the recorded execution including its
	// streaming spool writes (RecordTo commits records straight to
	// disk), plus the spool open/close/stat around it.
	rec := job.tracer.Start("record")
	defer rec.End()
	f, err := os.Create(job.spool)
	if err != nil {
		return &JobResult{ExitCode: ExitArtifact, Stderr: fmt.Sprintf("record: spool: %v\n", err)}
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	res, _, _ := ip.RecordTo(core.RunConfig{World: oskit.NewWorld(seed), Seed: seed}, f)
	if cerr := f.Close(); cerr != nil && res.Err == nil {
		res.Err = cerr
	}
	if res.Err != nil {
		return &JobResult{ExitCode: ExitFailure, Stderr: fmt.Sprintf("record: %v\n", res.Err)}
	}
	fi, err := os.Stat(job.spool)
	if err != nil {
		return &JobResult{ExitCode: ExitArtifact, Stderr: fmt.Sprintf("record: spool: %v\n", err)}
	}
	e.tel.AddSpoolBytes(fi.Size(), 0)
	hash := fmt.Sprintf("%016x", res.Hash64())
	rec.SetAttr("spool_bytes", fi.Size()).SetStr("output_hash", hash)
	return &JobResult{
		ExitCode:   ExitOK,
		Stdout:     fmt.Sprintf("%s: recorded %d bytes (seed=%d, output hash %s)\n", spec.Name, fi.Size(), seed, hash),
		LogBytes:   fi.Size(),
		OutputHash: hash,
	}
}

// execReplayVerify replays a CHIMLOG2 stream against the instrumented
// program straight from disk (replay.NewStreamReplayer — bounded memory)
// and verifies the replay: it must run clean, fully drain the log,
// and, when the log came from a record job, bit-match that job's output
// hash.
func (e *Engine) execReplayVerify(job *Job, spec *JobSpec) *JobResult {
	logPath := job.spool
	expect := ""
	name, source, config := spec.Name, spec.Source, spec.config()
	if spec.LogJob != "" {
		src, ok := e.Job(spec.LogJob)
		if !ok {
			return &JobResult{ExitCode: ExitUsage, Stderr: fmt.Sprintf("replay-verify: unknown log_job %s\n", spec.LogJob)}
		}
		v := src.View()
		if v.Kind != JobRecord || v.State != StateDone || v.Result == nil {
			return &JobResult{ExitCode: ExitUsage, Stderr: fmt.Sprintf("replay-verify: log_job %s is not a finished record job\n", spec.LogJob)}
		}
		logPath = src.spool
		expect = v.Result.OutputHash
		if source == "" {
			name, source, config = src.spec.Name, src.spec.Source, src.spec.config()
		}
	}
	sp := job.tracer.Start("instrument")
	ip, err := e.instrumentFor(spec.Tenant, name, source, config)
	sp.End()
	if err != nil {
		return &JobResult{ExitCode: ExitFailure, Stderr: fmt.Sprintf("replay-verify: %v\n", err)}
	}
	// The replay span covers the replayed execution including its
	// streaming spool reads; the counting reader feeds the actual
	// bytes pulled from disk into the span and the spool counter.
	rp := job.tracer.Start("replay")
	defer rp.End()
	f, err := os.Open(logPath)
	if err != nil {
		return &JobResult{ExitCode: ExitFailure, Stderr: fmt.Sprintf("replay-verify: %v\n", err)}
	}
	defer f.Close()
	cr := &countReader{r: f}
	// The replay seed deliberately differs from any recording seed:
	// determinism must come from the log alone.
	var res *vm.Result
	rep, rerr := replay.NewStreamReplayer(cr, vm.CostModel{})
	if rerr != nil {
		rerr = fmt.Errorf("open log stream: %w", rerr)
	} else {
		res, rerr = core.Replay(ip.Prog, ip.Table, rep, core.RunConfig{World: oskit.NewWorld(977), Seed: 977})
	}
	rp.SetAttr("spool_bytes", cr.n)
	e.tel.AddSpoolBytes(0, cr.n)

	matches := rerr == nil
	hash := ""
	if res != nil {
		hash = fmt.Sprintf("%016x", res.Hash64())
	}
	if matches && expect != "" && hash != expect {
		matches = false
		rerr = fmt.Errorf("output hash %s differs from recorded %s", hash, expect)
	}
	r := &JobResult{ReplayMatches: &matches}
	if matches {
		r.ExitCode = ExitOK
		r.Stdout = fmt.Sprintf("%s: replay matches (output hash %s)\n", name, hash)
	} else {
		r.ExitCode = ExitFailure
		r.Stderr = fmt.Sprintf("%s: replay diverged: %v\n", name, rerr)
	}
	return r
}

// execGen pushes a generated scenario through the complete soundness
// pipeline. Stdout/stderr are byte-identical to `racecheck -gen` on the
// same spec (reportGen is the shared printer); the structured verdict
// fields come from the same pipeline Result.
func execGen(tr *obs.Tracer, jobSpec *JobSpec) *JobResult {
	var out, errOut bytes.Buffer
	spec, err := scenario.Parse(jobSpec.Spec)
	if err != nil {
		fmt.Fprintln(&errOut, "racecheck:", err)
		return &JobResult{ExitCode: ExitUsage, Stderr: errOut.String()}
	}
	sp := tr.Start("gen-pipeline").SetStr("spec", spec.String())
	r := scenario.RunPipeline(spec)
	sp.End()
	code := reportGen(r, spec, jobSpec.Verbose, &out, &errOut)

	certified := r.StagePassed("certify")
	replayMatches := r.StagePassed("replay")
	checkersAgree := r.StagePassed("differential") && r.StagePassed("clean")
	races := r.OriginalRaces
	return &JobResult{
		ExitCode:      code,
		Stdout:        out.String(),
		Stderr:        errOut.String(),
		Certified:     &certified,
		ReplayMatches: &replayMatches,
		CheckersAgree: &checkersAgree,
		CheckerRaces:  &races,
		Stages:        r.Stages,
	}
}
