package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/service"
	"repro/internal/vm"
)

var update = flag.Bool("update", false, "regenerate testdata fixtures")

// writeFixture builds the checked-in sample log. The fixture is committed
// as a binary (log *reading* is deterministic everywhere; gzip *output*
// may differ across Go releases, so we pin the bytes rather than
// regenerate on the fly) and refreshed only via -update.
func writeFixture(t *testing.T, path string) {
	t.Helper()
	var buf bytes.Buffer
	lw := replay.NewLogWriter(&buf)
	for i := 0; i < 10; i++ {
		lw.Input(i%3, replay.InputRec{Op: 3, Val: int64(100 + i)})
	}
	lw.Input(1, replay.InputRec{Op: 5, Val: 4, Data: []int64{7, 8, 9, 10}})
	mu := vm.SyncKey{Class: vm.SyncMutex, ID: 32}
	wl := vm.SyncKey{Class: vm.SyncWeakLock, ID: 0}
	sp := vm.SyncKey{Class: vm.SyncSpawn, ID: 0}
	lw.Order(sp, replay.OrderRec{Tid: 0, Kind: vm.EvSpawn})
	for i := 0; i < 4; i++ {
		lw.Order(mu, replay.OrderRec{Tid: int32(i % 2), Kind: vm.EvAcquire})
		lw.Order(mu, replay.OrderRec{Tid: int32(i % 2), Kind: vm.EvRelease})
	}
	lw.Order(wl, replay.OrderRec{Tid: 1, Kind: vm.EvWLAcquire})
	lw.Order(wl, replay.OrderRec{
		Tid: 0, Kind: vm.EvWLForcedRelease,
		Anchor: vm.ForcedAnchor{Instr: 12345, Sync: 6, Blocked: true},
	})
	lw.Order(wl, replay.OrderRec{Tid: 1, Kind: vm.EvWLRelease})
	if err := lw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("write fixture: %v", err)
	}
}

func TestGolden(t *testing.T) {
	clog := filepath.Join("testdata", "sample.clog")
	golden := filepath.Join("testdata", "sample.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		writeFixture(t, clog)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-chunks", clog}, nil, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errOut.String())
	}
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output drifted from golden (regenerate with -update):\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", filepath.Join("testdata", "sample.clog")}, nil, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{
		`"total_bytes"`, `"order_by_class"`, `"weaklock"`, `"wlforce"`, `"compression_ratio"`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("JSON output missing %s:\n%s", want, out.String())
		}
	}
}

// TestStdin pipes the checked-in fixture through "-" and requires output
// byte-identical to reading the same file by path — the regression test
// for inspecting CHIMLOG2 streams piped out of the service
// (curl .../v1/jobs/ID/log | logstat -).
func TestStdin(t *testing.T) {
	clog := filepath.Join("testdata", "sample.clog")
	data, err := os.ReadFile(clog)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{{"-chunks"}, {"-json"}} {
		var fromFile, fromStdin, errOut bytes.Buffer
		if code := run(append(mode, clog), nil, &fromFile, &errOut); code != 0 {
			t.Fatalf("%v %s: run = %d, stderr: %s", mode, clog, code, errOut.String())
		}
		if code := run(append(mode, "-"), bytes.NewReader(data), &fromStdin, &errOut); code != 0 {
			t.Fatalf("%v -: run = %d, stderr: %s", mode, code, errOut.String())
		}
		if !bytes.Equal(fromFile.Bytes(), fromStdin.Bytes()) {
			t.Errorf("%v: stdin output differs from file output:\n--- file ---\n%s\n--- stdin ---\n%s",
				mode, fromFile.Bytes(), fromStdin.Bytes())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-"}, strings.NewReader("NOTALOG!"), &out, &errOut); code != 1 {
		t.Errorf("corrupt stdin: code = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "<stdin>") {
		t.Errorf("corrupt stdin: stderr = %q, want the <stdin> pseudo-path", errOut.String())
	}
}

func TestErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, nil, &out, &errOut); code != 2 {
		t.Errorf("no args: code = %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{filepath.Join(t.TempDir(), "missing.clog")}, nil, &out, &errOut); code != 1 {
		t.Errorf("missing file: code = %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.clog")
	if err := os.WriteFile(bad, []byte("NOTALOG!"), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if code := run([]string{bad}, nil, &out, &errOut); code != 1 {
		t.Errorf("corrupt file: code = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "not a chimera log") {
		t.Errorf("corrupt file: stderr = %q, want mention of bad magic", errOut.String())
	}
}

// tornSrc logs both streams: rnd() results are input records, the lock
// and the spawns order records.
const tornSrc = `
int m;
int g;
void worker(int n) {
    for (int i = 0; i < 4; i++) {
        lock(&m);
        g = g + rnd(10);
        unlock(&m);
    }
}
int main(void) {
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1);
    join(t2);
    print(g);
    return 0;
}
`

// A torn spool fails closed the same way in the service and in logstat:
// a chimerad record job's spool, truncated at each chunk boundary,
// truncated inside each chunk, or with a payload's tail zeroed, makes a
// replay-verify job of that record end done with exit 1 and
// replay_matches false, and makes logstat exit 1 with the same replay
// diagnostic, since both read through the one CHIMLOG2 parser.
func TestTornSpool(t *testing.T) {
	e := service.NewEngine(service.EngineConfig{Shards: 1, Depth: 8, SpoolDir: t.TempDir(), JobTimeout: time.Minute})
	defer e.Drain(time.Minute)
	await := func(spec *service.JobSpec) service.JobView {
		t.Helper()
		job, err := e.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		select {
		case <-job.Done():
		case <-time.After(time.Minute):
			t.Fatalf("job %s did not finish", job.ID())
		}
		return job.View()
	}
	rec := await(&service.JobSpec{Kind: service.JobRecord, Tenant: "t", Name: "torn", Source: tornSrc, Seed: 1})
	if rec.State != service.StateDone || rec.Result == nil || rec.Result.ExitCode != service.ExitOK {
		t.Fatalf("record: state %s, error %q, result %+v", rec.State, rec.Error, rec.Result)
	}
	f, err := e.OpenLog(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	spool := f.Name()
	clean, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	info, err := replay.Stat(bytes.NewReader(clean))
	if err != nil {
		t.Fatalf("clean spool: %v", err)
	}
	if len(info.Chunks) < 2 {
		t.Fatalf("spool has %d chunks, want both streams", len(info.Chunks))
	}

	type damage struct {
		name string
		data []byte
	}
	var cases []damage
	off := len("CHIMLOG2")
	for i, c := range info.Chunks {
		cases = append(cases,
			damage{fmt.Sprintf("cut before chunk %d", i), clean[:off]},
			damage{fmt.Sprintf("cut inside chunk %d", i), clean[:off+13+int(c.CompressedBytes)/2]})
		off += 13 + int(c.CompressedBytes)
		zeroed := append([]byte(nil), clean...)
		tail := zeroed[off-8 : off]
		if bytes.Equal(tail, make([]byte, 8)) {
			t.Fatalf("chunk %d payload already ends in zeros", i)
		}
		copy(tail, make([]byte, 8))
		cases = append(cases, damage{fmt.Sprintf("zeroed tail of chunk %d", i), zeroed})
	}
	cases = append(cases, damage{"cut before the end marker", clean[:off]})

	for _, d := range cases {
		if err := os.WriteFile(spool, d.data, 0o644); err != nil {
			t.Fatal(err)
		}
		v := await(&service.JobSpec{Kind: service.JobReplayVerify, Tenant: "t", LogJob: rec.ID})
		r := v.Result
		if v.State != service.StateDone || r == nil || r.ExitCode != service.ExitFailure ||
			r.ReplayMatches == nil || *r.ReplayMatches {
			t.Errorf("%s: replay-verify state %s, result %+v; want done, exit 1, replay_matches false", d.name, v.State, r)
			continue
		}
		var out, errOut bytes.Buffer
		if code := run([]string{spool}, nil, &out, &errOut); code != 1 {
			t.Errorf("%s: logstat = %d, want 1", d.name, code)
			continue
		}
		diag := strings.TrimPrefix(errOut.String(), "logstat: "+spool+": ")
		if !strings.HasPrefix(diag, "replay: ") || r.Stderr != "torn: replay diverged: open log stream: "+diag {
			t.Errorf("%s: logstat says %q, replay-verify %q; want the same replay diagnostic", d.name, errOut.String(), r.Stderr)
		}
		t.Logf("%s: %s", d.name, strings.TrimSpace(diag))
	}
}
