package service

import (
	"bytes"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/summary"
)

// racySrc has a classic unlock-free increment race between two workers.
const racySrc = `int x;
void bump(int id) { x = x + id; }
int main(void) {
    int t1 = spawn(bump, 1);
    int t2 = spawn(bump, 2);
    join(t1);
    join(t2);
    return x;
}
`

// cleanSrc is the barrier-phased program racecheck's goldens use: every
// pair is ordered, so certification succeeds.
const cleanSrc = `int bar;
int data;
void phase_a(int id) { data = id; }
void phase_b(int id) { data = data + id; }
void worker(int id) {
    phase_a(id);
    barrier_wait(&bar);
    phase_b(id);
}
int main(void) {
    barrier_init(&bar, 2);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1);
    join(t2);
    return data;
}
`

// inlineReq builds an analyze request carrying src inline under the
// display path name, with the given extra flag mutations applied.
func inlineReq(name, src string, mut func(*Request)) *Request {
	req := NewRequest()
	req.Args = []string{name}
	req.Source = src
	req.HasSource = true
	if mut != nil {
		mut(req)
	}
	return req
}

// tenantEnv builds the environment the engine gives one tenant: a
// whole-program cache over a tenant view of a summary store.
func tenantEnv(store *summary.Store, tenant string) *Env {
	view := store.View(tenant)
	return &Env{Cache: core.NewCache(view), Store: view}
}

// timingRE matches the wall-clock fields of -dynamic output — the only
// part of any verdict that varies between two runs of the *same* path
// (offline-vs-offline included). Everything else must match to the byte.
var timingRE = regexp.MustCompile(`wall=[0-9][^,)]*|checker share: [0-9].*`)

func stripTimings(b []byte) []byte {
	return timingRE.ReplaceAll(b, []byte("T"))
}

// TestRunRequestEnvByteIdentity is the service's core guarantee: running
// a request against a tenant environment (cold or warm) produces output
// byte-identical to the offline CLI path (nil env), for every analysis
// mode the server accepts. (Timing fields are normalized first; they
// differ even between two offline runs.)
func TestRunRequestEnvByteIdentity(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*Request)
	}{
		{"default", nil},
		{"verbose", func(r *Request) { r.Verbose = true }},
		{"mhp", func(r *Request) { r.MHP = true }},
		{"mhp-precision", func(r *Request) { r.MHP, r.Precision = true, true }},
		{"precision", func(r *Request) { r.Precision = true }},
		{"pairs", func(r *Request) { r.Pairs = true }},
		{"certify", func(r *Request) { r.Certify = true }},
		{"dynamic", func(r *Request) { r.Dynamic = true; r.Seed = 3 }},
		{"incremental", func(r *Request) { r.Incremental = true }},
		{"parallel", func(r *Request) { r.Parallel = 4 }},
	}
	// Sources that fail to load carry the exact stderr of the default
	// variant: the failing stage and file, then the position.
	for _, src := range []struct{ name, text, wantErr string }{
		{"racy.mc", racySrc, ""},
		{"clean.mc", cleanSrc, ""},
		{"parse.mc", "int main(void) { return 0 }\n", "racecheck: parse parse.mc: 1:27: expected ;, found }\n"},
		{"bad.mc", "int main(void) { return x; }\n", "racecheck: check bad.mc: 1:25: undefined: x\n"},
		{"nomain.mc", "int g;\nvoid f(void) { g = 1; }\n", "racecheck: compile nomain.mc: 0:0: program has no main function\n"},
	} {
		store := summary.NewStore()
		env := tenantEnv(store, "t1")
		for _, v := range variants {
			var offOut, offErr bytes.Buffer
			offCode := RunRequest(inlineReq(src.name, src.text, v.mut), nil, &offOut, &offErr)
			if src.wantErr != "" && v.mut == nil {
				if offCode != ExitFailure || offOut.Len() != 0 || offErr.String() != src.wantErr {
					t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d and stderr %q",
						src.name, offCode, offOut.String(), offErr.String(), ExitFailure, src.wantErr)
				}
			}
			// Two env runs: the first is cold, the second hits the
			// tenant's whole-program cache. Both must match offline.
			for pass := 0; pass < 2; pass++ {
				var out, errOut bytes.Buffer
				code := RunRequest(inlineReq(src.name, src.text, v.mut), env, &out, &errOut)
				if code != offCode {
					t.Errorf("%s/%s pass %d: exit %d, offline %d", src.name, v.name, pass, code, offCode)
				}
				if !bytes.Equal(stripTimings(out.Bytes()), stripTimings(offOut.Bytes())) {
					t.Errorf("%s/%s pass %d: stdout diverged from offline:\n--- env ---\n%s\n--- offline ---\n%s",
						src.name, v.name, pass, out.Bytes(), offOut.Bytes())
				}
				if !bytes.Equal(stripTimings(errOut.Bytes()), stripTimings(offErr.Bytes())) {
					t.Errorf("%s/%s pass %d: stderr diverged from offline:\n--- env ---\n%s\n--- offline ---\n%s",
						src.name, v.name, pass, errOut.Bytes(), offErr.Bytes())
				}
			}
		}
	}
}

func TestRequestSpecHash(t *testing.T) {
	a := inlineReq("p.mc", racySrc, nil)
	b := inlineReq("p.mc", racySrc, nil)
	if a.SpecHash() != b.SpecHash() {
		t.Fatal("equal requests hash differently")
	}
	c := inlineReq("p.mc", racySrc, func(r *Request) { r.MHP = true })
	if a.SpecHash() == c.SpecHash() {
		t.Fatal("-mhp did not change the spec hash")
	}
	d := inlineReq("p.mc", cleanSrc, nil)
	if a.SpecHash() == d.SpecHash() {
		t.Fatal("different source did not change the spec hash")
	}
}

func TestValidateRemoteRejectsLocalModes(t *testing.T) {
	for _, mut := range []func(*Request){
		func(r *Request) { r.BatchDir = "corpus" },
		func(r *Request) { r.CertOut = "out" },
		func(r *Request) { r.Instrumented = "prog.mc" },
		func(r *Request) { r.TracePath = "t.json" },
		func(r *Request) { r.MetricsPath = "m.json" },
		func(r *Request) { r.ShowCFG = true },
	} {
		req := inlineReq("p.mc", racySrc, mut)
		if err := req.ValidateRemote(); err == nil {
			t.Errorf("local-filesystem mode %+v passed ValidateRemote", req)
		}
	}
	if err := inlineReq("p.mc", racySrc, nil).ValidateRemote(); err != nil {
		t.Errorf("plain analyze rejected: %v", err)
	}
}

func TestJobSpecHashAndValidate(t *testing.T) {
	spec := &JobSpec{Kind: JobAnalyze, Tenant: "a", Request: inlineReq("p.mc", racySrc, nil)}
	if spec.Hash() != (&JobSpec{Kind: JobAnalyze, Tenant: "a", Request: inlineReq("p.mc", racySrc, nil)}).Hash() {
		t.Fatal("equal specs hash differently")
	}
	other := &JobSpec{Kind: JobAnalyze, Tenant: "b", Request: inlineReq("p.mc", racySrc, nil)}
	if spec.Hash() == other.Hash() {
		t.Fatal("tenant did not change the job hash")
	}

	bad := []*JobSpec{
		{Kind: "mystery"},
		{Kind: JobAnalyze},
		{Kind: JobAnalyze, Request: &Request{Args: []string{"local.mc"}}}, // path without inline source
		{Kind: JobRecord},
		{Kind: JobRecord, Source: racySrc, Config: "nope"},
		{Kind: JobRecord, Source: racySrc, Config: "all+mhp"}, // MHP is the mhp field, not a config
		{Kind: JobReplayVerify},
		{Kind: JobReplayVerify, LogJob: "j1", LogUpload: true},
		{Kind: JobReplayVerify, LogUpload: true}, // upload without source
		{Kind: JobGenPipeline},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated, want error", s)
		}
	}
	good := []*JobSpec{
		{Kind: JobAnalyze, Request: inlineReq("p.mc", racySrc, nil)},
		{Kind: JobRecord, Source: racySrc},
		{Kind: JobReplayVerify, LogJob: "j000001-abc"},
		{Kind: JobReplayVerify, LogUpload: true, Source: racySrc},
		{Kind: JobGenPipeline, Spec: "counters:7:small"},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", s, err)
		}
	}
}
