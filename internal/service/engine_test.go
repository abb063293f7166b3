package service

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oskit"
	"repro/internal/pool"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(EngineConfig{
		Shards:     4,
		Depth:      64,
		SpoolDir:   t.TempDir(),
		JobTimeout: 90 * time.Second,
	})
}

// await blocks until the job is terminal and returns its view.
func await(t *testing.T, job *Job) JobView {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", job.ID())
	}
	return job.View()
}

func submitAndAwait(t *testing.T, e *Engine, spec *JobSpec) JobView {
	t.Helper()
	job, err := e.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return await(t, job)
}

func TestEngineAnalyzeMatchesOffline(t *testing.T) {
	e := newTestEngine(t)
	defer e.Drain(time.Minute)
	req := inlineReq("racy.mc", racySrc, func(r *Request) { r.MHP = true })

	var offOut, offErr bytes.Buffer
	offCode := RunRequest(inlineReq("racy.mc", racySrc, func(r *Request) { r.MHP = true }), nil, &offOut, &offErr)

	v := submitAndAwait(t, e, &JobSpec{Kind: JobAnalyze, Tenant: "acme", Request: req})
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("job state %s, error %q", v.State, v.Error)
	}
	if v.Result.ExitCode != offCode || v.Result.Stdout != offOut.String() || v.Result.Stderr != offErr.String() {
		t.Errorf("service verdict diverged from offline:\nexit %d vs %d\n--- service ---\n%s\n--- offline ---\n%s",
			v.Result.ExitCode, offCode, v.Result.Stdout, offOut.String())
	}
}

func TestEngineRecordThenReplayVerify(t *testing.T) {
	e := newTestEngine(t)
	defer e.Drain(time.Minute)

	rec := submitAndAwait(t, e, &JobSpec{Kind: JobRecord, Tenant: "acme", Name: "clean", Source: cleanSrc, MHP: true, Seed: 7})
	if rec.State != StateDone || rec.Result == nil {
		t.Fatalf("record: state %s, error %q", rec.State, rec.Error)
	}
	if rec.Result.LogBytes <= 0 || rec.Result.OutputHash == "" {
		t.Fatalf("record result incomplete: %+v", rec.Result)
	}
	// The same spec re-recorded produces the same output hash (the
	// deterministic identity a replay must reproduce).
	rec2 := submitAndAwait(t, e, &JobSpec{Kind: JobRecord, Tenant: "acme", Name: "clean", Source: cleanSrc, MHP: true, Seed: 7})
	if rec2.Result == nil || rec2.Result.OutputHash != rec.Result.OutputHash {
		t.Fatalf("re-record hash %v, want %s", rec2.Result, rec.Result.OutputHash)
	}

	// Replay-verify against the record job's spool: the program and
	// config are inherited from the record spec, and the replayed output
	// must bit-match the recorded hash.
	ver := submitAndAwait(t, e, &JobSpec{Kind: JobReplayVerify, Tenant: "acme", LogJob: rec.ID})
	if ver.State != StateDone || ver.Result == nil {
		t.Fatalf("replay-verify: state %s, error %q", ver.State, ver.Error)
	}
	if ver.Result.ReplayMatches == nil || !*ver.Result.ReplayMatches {
		t.Fatalf("replay did not match: %+v", ver.Result)
	}
	if !strings.Contains(ver.Result.Stdout, rec.Result.OutputHash) {
		t.Errorf("verify stdout %q lacks the recorded hash %s", ver.Result.Stdout, rec.Result.OutputHash)
	}

	// A replay-verify naming an unfinished/unknown log job is a usage error.
	bad := submitAndAwait(t, e, &JobSpec{Kind: JobReplayVerify, Tenant: "acme", LogJob: "j999999-cafebabecafe"})
	if bad.Result == nil || bad.Result.ExitCode != ExitUsage {
		t.Errorf("unknown log_job: %+v, want exit %d", bad.Result, ExitUsage)
	}
}

func TestEngineReplayVerifyUpload(t *testing.T) {
	e := newTestEngine(t)
	defer e.Drain(time.Minute)

	rec := submitAndAwait(t, e, &JobSpec{Kind: JobRecord, Tenant: "acme", Name: "clean", Source: cleanSrc, Seed: 3})
	if rec.State != StateDone {
		t.Fatalf("record failed: %q", rec.Error)
	}
	f, err := e.OpenLog(rec.ID)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	logBytes, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The upload job idles in awaiting-log until the log arrives, then
	// runs. It carries its own copy of the program.
	job, err := e.Submit(&JobSpec{Kind: JobReplayVerify, Tenant: "acme", Name: "clean", Source: cleanSrc, LogUpload: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if v := job.View(); v.State != StateAwaitingLog {
		t.Fatalf("state %s, want awaiting-log", v.State)
	}
	n, err := e.AttachLog(job.ID(), bytes.NewReader(logBytes))
	if err != nil || n != int64(len(logBytes)) {
		t.Fatalf("AttachLog: n=%d err=%v, want %d bytes", n, err, len(logBytes))
	}
	v := await(t, job)
	if v.Result == nil || v.Result.ReplayMatches == nil || !*v.Result.ReplayMatches {
		t.Fatalf("uploaded replay did not match: %+v (error %q)", v.Result, v.Error)
	}

	// A second upload to the now-running/finished job is rejected.
	if _, err := e.AttachLog(job.ID(), bytes.NewReader(logBytes)); !errors.Is(err, ErrNotAwaitingLog) {
		t.Errorf("second upload: %v, want ErrNotAwaitingLog", err)
	}
	if _, err := e.AttachLog("j000000-missing00000", bytes.NewReader(nil)); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job upload: %v, want ErrUnknownJob", err)
	}
}

// oversizedReadSrc reads one word into a one-word buffer that sits right
// before guard.
const oversizedReadSrc = `int buf[1];
int guard;
int main(void) {
    guard = 7;
    int fd = open(5);
    int n = read(fd, buf, 1);
    print(n);
    print(buf[0]);
    print(guard);
    return 0;
}
`

// TestEngineReplayVerifyOversizedRead uploads a log whose read record
// carries one word more than the read asked for. An uploaded log has no
// recorded hash to compare against, so the replayer itself must catch the
// record before it overwrites guard.
func TestEngineReplayVerifyOversizedRead(t *testing.T) {
	e := newTestEngine(t)
	defer e.Drain(time.Minute)

	ip, err := e.instrumentFor("acme", "oversized", oversizedReadSrc, core.Config{Base: "all"})
	if err != nil {
		t.Fatal(err)
	}
	w := oskit.NewWorld(1)
	w.AddFile(5, []int64{5, 6})
	res, log, _ := ip.RecordTo(core.RunConfig{World: w, Seed: 1}, nil)
	if res.Err != nil {
		t.Fatalf("record: %v", res.Err)
	}
	read := &log.Inputs[0][1]
	read.Data = append(read.Data, 99)
	var tampered bytes.Buffer
	if _, err := log.WriteTo(&tampered); err != nil {
		t.Fatal(err)
	}

	job, err := e.Submit(&JobSpec{Kind: JobReplayVerify, Tenant: "acme", Name: "oversized", Source: oversizedReadSrc, LogUpload: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := e.AttachLog(job.ID(), &tampered); err != nil {
		t.Fatalf("AttachLog: %v", err)
	}
	v := await(t, job)
	r := v.Result
	if r == nil || r.ReplayMatches == nil || *r.ReplayMatches || r.ExitCode != ExitFailure {
		t.Fatalf("tampered upload: %+v (error %q), want replay_matches false and exit %d", r, v.Error, ExitFailure)
	}
	if want := "read record carries 2 words for a 1-word request"; !strings.Contains(r.Stderr, want) {
		t.Errorf("stderr %q lacks %q", r.Stderr, want)
	}
}

func TestEngineGenPipeline(t *testing.T) {
	e := newTestEngine(t)
	defer e.Drain(time.Minute)

	var offOut, offErr bytes.Buffer
	offReq := NewRequest()
	offReq.Gen = "counters:7:small"
	offCode := RunRequest(offReq, nil, &offOut, &offErr)

	v := submitAndAwait(t, e, &JobSpec{Kind: JobGenPipeline, Tenant: "acme", Spec: "counters:7:small"})
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("gen job: state %s, error %q", v.State, v.Error)
	}
	r := v.Result
	if r.ExitCode != offCode || r.Stdout != offOut.String() || r.Stderr != offErr.String() {
		t.Errorf("gen verdict diverged from racecheck -gen:\nexit %d vs %d\n--- service ---\n%s\n--- offline ---\n%s",
			r.ExitCode, offCode, r.Stdout, offOut.String())
	}
	for name, p := range map[string]*bool{
		"certified": r.Certified, "replay_matches": r.ReplayMatches, "checkers_agree": r.CheckersAgree,
	} {
		if p == nil || !*p {
			t.Errorf("structured verdict %s = %v, want true", name, p)
		}
	}
	if r.CheckerRaces == nil {
		t.Error("checker_races missing")
	}
	if len(r.Stages) == 0 {
		t.Error("stage trail missing")
	}

	bad := submitAndAwait(t, e, &JobSpec{Kind: JobGenPipeline, Tenant: "acme", Spec: "bogus:1:small"})
	if bad.Result == nil || bad.Result.ExitCode != ExitUsage {
		t.Errorf("bad spec: %+v, want exit %d", bad.Result, ExitUsage)
	}
}

func TestEngineDrainRejectsNewWork(t *testing.T) {
	e := newTestEngine(t)
	if !e.Drain(time.Minute) {
		t.Fatal("drain of idle engine did not complete")
	}
	if !e.Draining() {
		t.Error("Draining() = false after Drain")
	}
	_, err := e.Submit(&JobSpec{Kind: JobGenPipeline, Spec: "counters:7:small"})
	if !errors.Is(err, pool.ErrDraining) {
		t.Errorf("post-drain submit: %v, want pool.ErrDraining", err)
	}
}

// TestMultiTenantSummaryReuse is the multi-tenant isolation contract
// (run under -race in CI): 8 concurrent submitters spread across two
// tenants submit the same program; within each tenant every repeat is a
// full cache hit, and the tenants' key namespaces never collide — each
// pays for exactly one cold analysis and the shared store holds two
// disjoint copies.
func TestMultiTenantSummaryReuse(t *testing.T) {
	e := newTestEngine(t)
	defer e.Drain(time.Minute)
	const submitters = 8
	const perSubmitter = 3
	tenants := []string{"alice", "bob"}

	var wg sync.WaitGroup
	views := make([][]JobView, submitters)
	for i := 0; i < submitters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := tenants[i%len(tenants)]
			for j := 0; j < perSubmitter; j++ {
				req := inlineReq("shared.mc", cleanSrc, func(r *Request) { r.MHP = true })
				job, err := e.Submit(&JobSpec{Kind: JobAnalyze, Tenant: tenant, Request: req})
				if err != nil {
					t.Errorf("submitter %d: %v", i, err)
					return
				}
				views[i] = append(views[i], await(t, job))
			}
		}()
	}
	wg.Wait()

	// Every verdict — any tenant, any submitter — is byte-identical to
	// the offline run.
	var offOut, offErr bytes.Buffer
	offCode := RunRequest(inlineReq("shared.mc", cleanSrc, func(r *Request) { r.MHP = true }), nil, &offOut, &offErr)
	for i, vs := range views {
		for _, v := range vs {
			if v.State != StateDone || v.Result == nil {
				t.Fatalf("submitter %d: job %s state %s, error %q", i, v.ID, v.State, v.Error)
			}
			if v.Result.ExitCode != offCode || v.Result.Stdout != offOut.String() || v.Result.Stderr != offErr.String() {
				t.Errorf("submitter %d: verdict diverged from offline", i)
			}
		}
	}

	m := e.Metrics()
	if len(m.Tenants) != 2 {
		t.Fatalf("metrics report %d tenants, want 2", len(m.Tenants))
	}
	jobsPerTenant := int64(submitters / 2 * perSubmitter)
	var totalPuts int64
	for _, tm := range m.Tenants {
		if tm.Jobs != jobsPerTenant {
			t.Errorf("tenant %s: %d jobs, want %d", tm.Tenant, tm.Jobs, jobsPerTenant)
		}
		// Identical submissions share a spec hash, so they serialized on
		// one shard: exactly one cold miss, all repeats full hits.
		if tm.Cache.Misses != 1 || tm.Cache.Hits != jobsPerTenant-1 {
			t.Errorf("tenant %s cache = %+v, want 1 miss / %d hits (full within-tenant reuse)",
				tm.Tenant, tm.Cache, jobsPerTenant-1)
		}
		if tm.CacheHitRatio <= 0 {
			t.Errorf("tenant %s: cache hit ratio %v, want > 0", tm.Tenant, tm.CacheHitRatio)
		}
		if tm.SummaryStore.Puts == 0 {
			t.Errorf("tenant %s: no summary puts — cold analysis bypassed the store", tm.Tenant)
		}
		totalPuts += tm.SummaryStore.Puts
	}
	if m.Tenants[0].SummaryStore.Puts != m.Tenants[1].SummaryStore.Puts {
		t.Errorf("tenants did identical work but put %d vs %d summaries",
			m.Tenants[0].SummaryStore.Puts, m.Tenants[1].SummaryStore.Puts)
	}
	// No cross-tenant key collisions: the shared storage holds each
	// tenant's entries separately, so global residency is the sum of
	// both tenants' puts.
	if got := m.Tenants[0].SummaryStore.Entries; got != totalPuts {
		t.Errorf("shared store holds %d entries, want %d (disjoint per-tenant namespaces)", got, totalPuts)
	}
}

func TestEngineJobTimeout(t *testing.T) {
	e := NewEngine(EngineConfig{Shards: 1, Depth: 4, SpoolDir: t.TempDir(), JobTimeout: 50 * time.Millisecond})
	defer e.Drain(time.Minute)
	// This gen-pipeline run takes about ten times the 50ms deadline
	// (≈0.5s on a 2-core Xeon); the job must fail at the deadline rather
	// than wedge the shard.
	v := submitAndAwait(t, e, &JobSpec{Kind: JobGenPipeline, Tenant: "t", Spec: "cache:7:large"})
	if v.State != StateFailed || !strings.Contains(v.Error, "timed out") {
		t.Fatalf("state %s, error %q, want a timeout failure", v.State, v.Error)
	}
	// The shard survives and runs the next (fast-failing) job.
	e2 := NewEngine(EngineConfig{Shards: 1, Depth: 4, SpoolDir: t.TempDir(), JobTimeout: time.Minute})
	defer e2.Drain(time.Minute)
	v2 := submitAndAwait(t, e2, &JobSpec{Kind: JobGenPipeline, Tenant: "t", Spec: "bogus:1:small"})
	if v2.State != StateDone {
		t.Fatalf("follow-up job state %s, error %q", v2.State, v2.Error)
	}
}
