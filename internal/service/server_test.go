package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*httptest.Server, *Client, *Engine) {
	t.Helper()
	eng := NewEngine(EngineConfig{
		Shards:     4,
		Depth:      256,
		SpoolDir:   t.TempDir(),
		JobTimeout: 90 * time.Second,
	})
	ts := httptest.NewServer(NewServer(eng))
	t.Cleanup(func() {
		ts.Close()
		eng.Drain(time.Minute)
	})
	return ts, NewClient(ts.URL), eng
}

func TestServerJobLifecycle(t *testing.T) {
	ts, c, _ := newTestServer(t)

	accepted, err := c.Submit(&JobSpec{Kind: JobAnalyze, Tenant: "acme", Request: inlineReq("racy.mc", racySrc, nil)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if accepted.ID == "" || accepted.SpecHash == "" {
		t.Fatalf("accepted view incomplete: %+v", accepted)
	}
	v, err := c.Wait(accepted.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("state %s, error %q", v.State, v.Error)
	}
	var offOut, offErr bytes.Buffer
	offCode := RunRequest(inlineReq("racy.mc", racySrc, nil), nil, &offOut, &offErr)
	if v.Result.ExitCode != offCode || v.Result.Stdout != offOut.String() || v.Result.Stderr != offErr.String() {
		t.Errorf("wire verdict diverged from offline CLI")
	}

	// Poll and list agree.
	got, err := c.Job(accepted.ID)
	if err != nil || got.State != StateDone {
		t.Fatalf("Job: %+v, %v", got, err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != accepted.ID {
		t.Errorf("list = %+v, want the one submitted job", list.Jobs)
	}

	// Health endpoint reports live and not draining.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Draining {
		t.Errorf("healthz = %+v", health)
	}
}

func TestServerErrors(t *testing.T) {
	ts, c, _ := newTestServer(t)

	// Unknown job: 404 on poll, wait, and log download.
	if _, err := c.Job("j999999-nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job poll: %v, want 404", err)
	}
	if _, err := c.UploadLog("j999999-nope", strings.NewReader("x")); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job upload: %v, want 404", err)
	}

	// Malformed spec JSON: 400.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec: %d, want 400", resp.StatusCode)
	}

	// Invalid spec (validation): 400 with the message.
	if _, err := c.Submit(&JobSpec{Kind: JobRecord}); err == nil || !strings.Contains(err.Error(), "inline source") {
		t.Errorf("invalid spec: %v, want validation message", err)
	}

	// Upload to a job that is not awaiting a log: 409.
	v, err := c.Submit(&JobSpec{Kind: JobGenPipeline, Tenant: "t", Spec: "bogus:1:small"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(v.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UploadLog(v.ID, strings.NewReader("x")); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("conflict upload: %v, want 409", err)
	}

	// Bad wait timeout: 400.
	wr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/wait?timeout=banana")
	if err != nil {
		t.Fatal(err)
	}
	wr.Body.Close()
	if wr.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout: %d, want 400", wr.StatusCode)
	}
}

// TestServerLogRoundTrip records over HTTP, streams the CHIMLOG2 log
// down, streams it back up into a replay-verify job, and expects a
// bit-match.
func TestServerLogRoundTrip(t *testing.T) {
	_, c, _ := newTestServer(t)

	rec, err := c.Submit(&JobSpec{Kind: JobRecord, Tenant: "acme", Name: "clean", Source: cleanSrc, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	recDone, err := c.Wait(rec.ID)
	if err != nil || recDone.State != StateDone {
		t.Fatalf("record: %+v, %v", recDone, err)
	}

	var log bytes.Buffer
	n, err := c.DownloadLog(rec.ID, &log)
	if err != nil || n != recDone.Result.LogBytes {
		t.Fatalf("DownloadLog: n=%d err=%v, want %d bytes", n, err, recDone.Result.LogBytes)
	}

	ver, err := c.Submit(&JobSpec{Kind: JobReplayVerify, Tenant: "acme", Name: "clean", Source: cleanSrc, LogUpload: true})
	if err != nil {
		t.Fatal(err)
	}
	if ver.State != StateAwaitingLog {
		t.Fatalf("state %s, want awaiting-log", ver.State)
	}
	if _, err := c.UploadLog(ver.ID, bytes.NewReader(log.Bytes())); err != nil {
		t.Fatalf("UploadLog: %v", err)
	}
	verDone, err := c.Wait(ver.ID)
	if err != nil {
		t.Fatal(err)
	}
	if verDone.Result == nil || verDone.Result.ReplayMatches == nil || !*verDone.Result.ReplayMatches {
		t.Fatalf("uploaded replay did not match: %+v (error %q)", verDone.Result, verDone.Error)
	}
	if !strings.Contains(verDone.Result.Stdout, recDone.Result.OutputHash) {
		t.Errorf("verify stdout %q lacks recorded hash %s", verDone.Result.Stdout, recDone.Result.OutputHash)
	}
}

func TestServerDrainReturns503(t *testing.T) {
	_, c, eng := newTestServer(t)
	if !eng.Drain(time.Minute) {
		t.Fatal("drain did not complete")
	}
	_, err := c.Submit(&JobSpec{Kind: JobGenPipeline, Spec: "counters:7:small"})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("post-drain submit: %v, want 503", err)
	}
}

// TestServerConcurrentTenantsByteIdentity is the acceptance gate: 32
// concurrent submissions spread across two tenants and four distinct
// requests, every verdict byte-identical to the offline CLI, and
// /metrics reporting per-tenant hit ratios afterwards.
func TestServerConcurrentTenantsByteIdentity(t *testing.T) {
	_, c, _ := newTestServer(t)

	type variant struct {
		name string
		mut  func(*Request)
	}
	variants := []variant{
		{"racy-default", nil},
		{"racy-mhp", func(r *Request) { r.MHP = true }},
		{"clean-verbose", func(r *Request) { r.Verbose = true }},
		{"clean-certify", func(r *Request) { r.Certify = true }},
	}
	srcFor := func(v variant) (string, string) {
		if strings.HasPrefix(v.name, "racy") {
			return "racy.mc", racySrc
		}
		return "clean.mc", cleanSrc
	}

	// Offline ground truth, one per variant.
	type verdict struct {
		code     int
		out, err string
	}
	offline := make([]verdict, len(variants))
	for i, v := range variants {
		name, src := srcFor(v)
		var out, errOut bytes.Buffer
		offline[i] = verdict{RunRequest(inlineReq(name, src, v.mut), nil, &out, &errOut), "", ""}
		offline[i].out, offline[i].err = out.String(), errOut.String()
	}

	const submissions = 32
	tenants := []string{"alice", "bob"}
	var wg sync.WaitGroup
	errCh := make(chan error, submissions)
	for i := 0; i < submissions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := variants[i%len(variants)]
			tenant := tenants[i%len(tenants)]
			name, src := srcFor(v)
			accepted, err := c.Submit(&JobSpec{Kind: JobAnalyze, Tenant: tenant, Request: inlineReq(name, src, v.mut)})
			if err != nil {
				errCh <- fmt.Errorf("submit %d (%s): %v", i, v.name, err)
				return
			}
			done, err := c.Wait(accepted.ID)
			if err != nil {
				errCh <- fmt.Errorf("wait %d (%s): %v", i, v.name, err)
				return
			}
			if done.State != StateDone || done.Result == nil {
				errCh <- fmt.Errorf("job %d (%s): state %s, error %q", i, v.name, done.State, done.Error)
				return
			}
			want := offline[i%len(variants)]
			if done.Result.ExitCode != want.code || done.Result.Stdout != want.out || done.Result.Stderr != want.err {
				errCh <- fmt.Errorf("job %d (%s, tenant %s): verdict diverged from offline CLI", i, v.name, tenant)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.Jobs.Done != submissions {
		t.Errorf("metrics: %d done jobs, want %d", m.Jobs.Done, submissions)
	}
	if len(m.Tenants) != 2 {
		t.Fatalf("metrics: %d tenants, want 2", len(m.Tenants))
	}
	for _, tm := range m.Tenants {
		if tm.Jobs != submissions/2 {
			t.Errorf("tenant %s: %d jobs, want %d", tm.Tenant, tm.Jobs, submissions/2)
		}
		if tm.CacheHitRatio <= 0 {
			t.Errorf("tenant %s: cache hit ratio %v, want > 0 after repeated identical submissions", tm.Tenant, tm.CacheHitRatio)
		}
	}
}

// TestRemoteRunMatchesOffline drives racecheck's -server client mode end
// to end against a live server, from a real file on disk.
func TestRemoteRunMatchesOffline(t *testing.T) {
	ts, _, _ := newTestServer(t)

	path := filepath.Join(t.TempDir(), "racy.mc")
	if err := os.WriteFile(path, []byte(racySrc), 0o644); err != nil {
		t.Fatal(err)
	}

	build := func() *Request {
		req := NewRequest()
		req.MHP = true
		req.Args = []string{path}
		return req
	}
	var offOut, offErr bytes.Buffer
	offCode := RunRequest(build(), nil, &offOut, &offErr)

	var out, errOut bytes.Buffer
	code := RemoteRun(ts.URL, "cli", build(), &out, &errOut)
	if code != offCode || out.String() != offOut.String() || errOut.String() != offErr.String() {
		t.Errorf("RemoteRun diverged from offline:\nexit %d vs %d\n--- remote ---\n%s%s\n--- offline ---\n%s%s",
			code, offCode, out.String(), errOut.String(), offOut.String(), offErr.String())
	}

	// Local-filesystem modes are rejected client-side as usage errors.
	badReq := build()
	badReq.MetricsPath = "m.json"
	var bo, be bytes.Buffer
	if code := RemoteRun(ts.URL, "cli", badReq, &bo, &be); code != ExitUsage {
		t.Errorf("RemoteRun with -metrics: exit %d, want %d", code, ExitUsage)
	}

	// -trace, by contrast, is handled client-side: the job returns its
	// span tree and the client writes a Perfetto file naming queue-wait
	// and every pipeline stage. The request goes to a tenant no earlier
	// request used, so its load is cold and runs every loader stage
	// under analyze; resubmitted, it hits the tenant cache and the
	// loader's stages are gone.
	traceNames := func(tracePath string) map[string]bool {
		t.Helper()
		traced := build()
		traced.TracePath = tracePath
		var to, te bytes.Buffer
		if code := RemoteRun(ts.URL, "cli-traced", traced, &to, &te); code != offCode {
			t.Fatalf("RemoteRun with -trace: exit %d, want %d (stderr %q)", code, offCode, te.String())
		}
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatalf("read trace: %v", err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		names := make(map[string]bool, len(doc.TraceEvents))
		for _, ev := range doc.TraceEvents {
			names[ev.Name] = true
		}
		return names
	}
	cold := traceNames(filepath.Join(t.TempDir(), "cold.trace.json"))
	for _, want := range []string{"request", "queue-wait", "run", "analyze",
		"lex-parse", "typecheck", "compile", "points-to", "callgraph", "relay",
		"mhp-refine", "report", "verdict-encode"} {
		if !cold[want] {
			t.Errorf("cold trace lacks span %q (have %v)", want, cold)
		}
	}
	warm := traceNames(filepath.Join(t.TempDir(), "warm.trace.json"))
	if !warm["analyze"] || warm["lex-parse"] {
		t.Errorf("warm trace: want analyze with no lex-parse beneath it (have %v)", warm)
	}
	// A missing source file fails exactly like the offline CLI.
	missing := build()
	missing.Args = []string{filepath.Join(t.TempDir(), "absent.mc")}
	var mo, me bytes.Buffer
	if code := RemoteRun(ts.URL, "cli", missing, &mo, &me); code != ExitFailure {
		t.Errorf("RemoteRun on missing file: exit %d, want %d", code, ExitFailure)
	}
	if !strings.Contains(me.String(), "racecheck:") {
		t.Errorf("missing-file stderr %q lacks the racecheck prefix", me.String())
	}
}

// TestFinishedJobsAreBounded submits maxFinishedJobs+k jobs: the oldest k
// record jobs are forgotten (their IDs answer like unknown ones and their
// spools are deleted), the newest maxFinishedJobs are kept, and a kept
// record job still replay-verifies. The fillers between them finish on
// several shards at once while Metrics and Views read the table.
func TestFinishedJobsAreBounded(t *testing.T) {
	ts, _, eng := newTestServer(t)
	const k = 3
	record := func(seed uint64) JobView {
		v := submitAndAwait(t, eng, &JobSpec{Kind: JobRecord, Tenant: "acme", Name: "clean", Source: cleanSrc, Seed: seed})
		if v.State != StateDone || v.Result == nil || v.Result.ExitCode != ExitOK {
			t.Fatalf("record: state %s, result %+v, error %q", v.State, v.Result, v.Error)
		}
		return v
	}
	var old []JobView
	for i := 0; i < k; i++ {
		old = append(old, record(uint64(i+1)))
	}
	// Cheap fillers: a malformed scenario spec ends at parsing. Distinct
	// specs spread them over the shards.
	const submitters = 8
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < maxFinishedJobs-1; i += submitters {
				job, err := eng.Submit(&JobSpec{Kind: JobGenPipeline, Tenant: "acme", Spec: fmt.Sprintf("filler-%d", i)})
				if err != nil {
					t.Errorf("submit filler %d: %v", i, err)
					return
				}
				<-job.Done()
				eng.Metrics()
				eng.Views()
			}
		}(g)
	}
	wg.Wait()
	kept := record(9)

	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, v := range old {
		for _, path := range []string{"/v1/jobs/" + v.ID, "/v1/jobs/" + v.ID + "/log"} {
			if code := status(path); code != http.StatusNotFound {
				t.Errorf("GET %s = %d, want 404 for a forgotten job", path, code)
			}
		}
		spool := filepath.Join(eng.cfg.SpoolDir, v.ID+".clog")
		if _, err := os.Stat(spool); !os.IsNotExist(err) {
			t.Errorf("forgotten job %s kept its spool: %v", v.ID, err)
		}
		ver := submitAndAwait(t, eng, &JobSpec{Kind: JobReplayVerify, Tenant: "acme", LogJob: v.ID})
		if ver.Result == nil || ver.Result.ExitCode != ExitUsage ||
			ver.Result.Stderr != fmt.Sprintf("replay-verify: unknown log_job %s\n", v.ID) {
			t.Errorf("replay-verify of forgotten job %s: %+v", v.ID, ver.Result)
		}
	}

	// The three replay-verify jobs above each pushed a filler out.
	views := eng.Views()
	if len(views) != maxFinishedJobs {
		t.Fatalf("engine keeps %d jobs, want %d", len(views), maxFinishedJobs)
	}
	for i := 1; i < len(views); i++ {
		if views[i-1].ID >= views[i].ID {
			t.Fatalf("Views out of submission order: %s before %s", views[i-1].ID, views[i].ID)
		}
	}
	if code := status("/v1/jobs/" + kept.ID + "/log"); code != http.StatusOK {
		t.Errorf("GET log of kept record job = %d, want 200", code)
	}
	ver := submitAndAwait(t, eng, &JobSpec{Kind: JobReplayVerify, Tenant: "acme", LogJob: kept.ID})
	if ver.Result == nil || ver.Result.ReplayMatches == nil || !*ver.Result.ReplayMatches {
		t.Fatalf("replay-verify of kept record job: %+v", ver.Result)
	}
	if m := eng.Metrics(); m.Jobs.Done != maxFinishedJobs+k+k+1 || m.Jobs.Failed != 0 {
		t.Errorf("metrics count %d done and %d failed, want %d done: counters must include forgotten jobs",
			m.Jobs.Done, m.Jobs.Failed, maxFinishedJobs+k+k+1)
	}
}
