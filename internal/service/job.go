package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/instrument"
	"repro/internal/obs"
)

// JobKind names the four kinds of work the engine schedules.
type JobKind string

const (
	// JobAnalyze runs the full racecheck request pipeline (static
	// analysis, refinement, certification, dynamic checking — whatever
	// the embedded Request selects) and captures its verdict text.
	JobAnalyze JobKind = "analyze"
	// JobRecord instruments a submitted program and records one
	// execution, streaming the CHIMLOG2 log to a disk spool as records
	// commit — the job never holds the whole log in memory.
	JobRecord JobKind = "record"
	// JobReplayVerify replays a CHIMLOG2 stream (a record job's spool,
	// or one uploaded over the wire) against the instrumented program
	// with bounded memory and reports whether the replay bit-matches.
	JobReplayVerify JobKind = "replay-verify"
	// JobGenPipeline generates a scenario program from a spec and pushes
	// it through the complete soundness pipeline (analyze fresh ==
	// incremental, instrument, certify clean, record, replay
	// bit-identical, epoch == vector verdicts).
	JobGenPipeline JobKind = "gen-pipeline"
)

// JobState is the lifecycle: queued → running → done|failed, with
// awaiting-log before queued for replay-verify jobs expecting an upload.
type JobState string

const (
	StateQueued      JobState = "queued"
	StateAwaitingLog JobState = "awaiting-log"
	StateRunning     JobState = "running"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
)

// JobSpec is the serialized description of one job — everything the
// engine needs to execute it, and nothing else. Its Hash is the job's
// deterministic identity.
type JobSpec struct {
	Kind   JobKind `json:"kind"`
	Tenant string  `json:"tenant,omitempty"`

	// TraceID names this submission in spans, logs, and /debug/traces;
	// the engine mints one when both this and the embedded request's
	// trace ID are empty. WantTrace asks the engine to attach the
	// job's span tree to the result (JobResult.Trace) so the client
	// can render it (racecheck -server -trace). Neither participates
	// in Hash: trace identity is per-request, work identity per-spec,
	// and hashing them would break shard affinity and cache-warm dedup
	// for identical work.
	TraceID   string `json:"trace_id,omitempty"`
	WantTrace bool   `json:"want_trace,omitempty"`

	// Request drives analyze jobs: the full racecheck flag vocabulary.
	Request *Request `json:"request,omitempty"`

	// Record / replay-verify jobs carry the program inline.
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
	Config string `json:"config,omitempty"` // instrumentation config (default "all")
	MHP    bool   `json:"mhp,omitempty"`    // refine the report before instrumenting
	Seed   uint64 `json:"seed,omitempty"`   // recording schedule seed

	// Replay-verify log source: exactly one of LogJob (a finished record
	// job whose spool — and expected output hash — this job verifies
	// against) or LogUpload (the log arrives via PUT /v1/jobs/{id}/log;
	// the job stays in awaiting-log until it does).
	LogJob    string `json:"log_job,omitempty"`
	LogUpload bool   `json:"log_upload,omitempty"`

	// Spec drives gen-pipeline jobs (family:seed:size); Verbose adds the
	// generated source to stdout, exactly like `racecheck -gen -v`.
	Spec    string `json:"spec,omitempty"`
	Verbose bool   `json:"verbose,omitempty"`
}

// config returns the instrumentation config name with the default applied.
func (s *JobSpec) config() string {
	if s.Config == "" {
		return "all"
	}
	return s.Config
}

// Validate reports why the spec cannot be executed.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case JobAnalyze:
		if s.Request == nil {
			return fmt.Errorf("analyze job needs a request")
		}
		if err := s.Request.ValidateRemote(); err != nil {
			return fmt.Errorf("analyze job: %v", err)
		}
		if len(s.Request.Args) == 1 && !s.Request.HasSource {
			return fmt.Errorf("analyze job: positional argument %q without inline source", s.Request.Args[0])
		}
	case JobRecord:
		if s.Source == "" {
			return fmt.Errorf("record job needs inline source")
		}
		if _, ok := instrument.OptionsFor(s.config()); !ok {
			return fmt.Errorf("record job: unknown config %q", s.config())
		}
	case JobReplayVerify:
		switch {
		case s.LogJob == "" && !s.LogUpload:
			return fmt.Errorf("replay-verify job needs log_job or log_upload")
		case s.LogJob != "" && s.LogUpload:
			return fmt.Errorf("replay-verify job takes log_job or log_upload, not both")
		case s.LogUpload && s.Source == "":
			return fmt.Errorf("replay-verify job with log_upload needs inline source")
		}
		if s.Source != "" {
			if _, ok := instrument.OptionsFor(s.config()); !ok {
				return fmt.Errorf("replay-verify job: unknown config %q", s.config())
			}
		}
	case JobGenPipeline:
		if s.Spec == "" {
			return fmt.Errorf("gen-pipeline job needs a scenario spec")
		}
	default:
		return fmt.Errorf("unknown job kind %q", s.Kind)
	}
	return nil
}

// Hash is the deterministic identity of the work this spec describes:
// SHA-256 over a canonical field-tagged encoding. The pipeline is
// deterministic in every hashed input, so equal hashes mean
// byte-identical verdicts — which is why the engine routes jobs to
// shards by this hash: identical re-submissions serialize on one shard
// and hit the tenant's caches warm.
func (s *JobSpec) Hash() string {
	h := sha256.New()
	field := func(tag string, v any) {
		fmt.Fprintf(h, "%s=%v\x00", tag, v)
	}
	field("kind", s.Kind)
	field("tenant", s.Tenant)
	if s.Request != nil {
		field("request", s.Request.SpecHash())
	}
	field("name", s.Name)
	field("source", s.Source)
	field("config", s.Config)
	field("mhp", s.MHP)
	field("seed", s.Seed)
	field("log_job", s.LogJob)
	field("log_upload", s.LogUpload)
	field("spec", s.Spec)
	field("verbose", s.Verbose)
	return hex.EncodeToString(h.Sum(nil))
}

// JobResult is a finished job's output. ExitCode/Stdout/Stderr carry the
// racecheck-equivalent verdict; the typed fields carry the structured
// verdicts scripts assert on (the CI smoke gate jq-checks certified /
// replay_matches / checkers_agree).
type JobResult struct {
	ExitCode int    `json:"exit_code"`
	Stdout   string `json:"stdout,omitempty"`
	Stderr   string `json:"stderr,omitempty"`

	// Record jobs: spool size and the 64-bit output hash of the recorded
	// execution (the value a verifying replay must reproduce).
	LogBytes   int64  `json:"log_bytes,omitempty"`
	OutputHash string `json:"output_hash,omitempty"`

	// Replay-verify and gen-pipeline verdicts.
	ReplayMatches *bool `json:"replay_matches,omitempty"`

	// Gen-pipeline verdicts.
	Certified     *bool    `json:"certified,omitempty"`
	CheckersAgree *bool    `json:"checkers_agree,omitempty"`
	CheckerRaces  *int     `json:"checker_races,omitempty"`
	Stages        []string `json:"stages,omitempty"`

	// Trace is the job's span tree, attached when the spec set
	// WantTrace: the root "request" span with queue wait, spool I/O,
	// pipeline stages, and verdict encode as descendants.
	Trace *obs.SpanNode `json:"trace,omitempty"`
}

// Job is one scheduled unit of work. All fields are guarded by mu;
// readers take View snapshots. done closes exactly once, when the job
// reaches a terminal state.
type Job struct {
	mu       sync.Mutex
	id       string
	spec     *JobSpec
	hash     string
	state    JobState
	errMsg   string
	result   *JobResult
	created  time.Time
	started  time.Time
	finished time.Time

	done  chan struct{}
	spool string // CHIMLOG2 spool path (record output / replay input)

	// Per-request observability, owned by the engine. tracer records
	// the job's span tree; rootSpan is the open "request" span and
	// waitSpan the currently open wait-phase span ("awaiting-log" or
	// "queue-wait"). queueWaitNS/runNS are filled as the spans close.
	traceID     string
	tracer      *obs.Tracer
	rootSpan    *obs.Span
	waitSpan    *obs.Span
	queueWaitNS int64
	runNS       int64
}

// ID returns the job's engine-assigned identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setRunning transitions queued → running.
func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
	}
}

// complete moves the job to done (errMsg == "") or failed, exactly once;
// late completions (e.g. a timed-out executor finally returning) are
// dropped. It reports whether this call was the one that completed it.
func (j *Job) complete(res *JobResult, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return false
	}
	j.result = res
	j.errMsg = errMsg
	if errMsg != "" {
		j.state = StateFailed
	} else {
		j.state = StateDone
	}
	j.finished = time.Now()
	close(j.done)
	return true
}

// JobView is the wire representation of a job's current state.
// QueueWaitNS and RunNS come from the job's span tree (queue-wait and
// run spans), so they are populated once the corresponding phase ends.
type JobView struct {
	ID          string     `json:"id"`
	Kind        JobKind    `json:"kind"`
	Tenant      string     `json:"tenant,omitempty"`
	SpecHash    string     `json:"spec_hash"`
	TraceID     string     `json:"trace_id,omitempty"`
	State       JobState   `json:"state"`
	Error       string     `json:"error,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
	Created     time.Time  `json:"created"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
	QueueWaitNS int64      `json:"queue_wait_ns,omitempty"`
	RunNS       int64      `json:"run_ns,omitempty"`
}

// Terminal reports whether the job has finished (done or failed).
func (v *JobView) Terminal() bool {
	return v.State == StateDone || v.State == StateFailed
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		Kind:        j.spec.Kind,
		Tenant:      j.spec.Tenant,
		SpecHash:    j.hash,
		TraceID:     j.traceID,
		State:       j.state,
		Error:       j.errMsg,
		Result:      j.result,
		Created:     j.created,
		QueueWaitNS: j.queueWaitNS,
		RunNS:       j.runNS,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}
