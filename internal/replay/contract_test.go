package replay_test

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/minic/types"
	"repro/internal/oskit"
	"repro/internal/replay"
	"repro/internal/vm"
)

// replayBoth replays log against p through both replayer constructors:
// straight from the in-memory Log, and from its CHIMLOG2 encoding.
func replayBoth(t *testing.T, ip *core.Instrumented, log *replay.Log, rc core.RunConfig) (mem, stream *vm.Result, memErr, streamErr error) {
	t.Helper()
	mem, memErr = ip.Replay(log, rc)
	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := replay.NewStreamReplayer(bytes.NewReader(buf.Bytes()), rc.Cost)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	stream, streamErr = core.Replay(ip.Prog, ip.Table, rep, rc)
	return mem, stream, memErr, streamErr
}

// oversizedSrc reads one word into a one-word buffer that sits right
// before guard, so a read record carrying a second word would overwrite
// guard on replay.
const oversizedSrc = `
int buf[1];
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

// recordSmall instruments and records src against a world holding file 5.
func recordSmall(t *testing.T, src string) (*core.Instrumented, *replay.Log, *vm.Result) {
	t.Helper()
	prog, err := core.Load("small.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := prog.InstrumentWith(prog.Races, nil, instrument.AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := oskit.NewWorld(1)
	w.AddFile(5, []int64{5, 6, 7})
	res, log, _ := ip.RecordTo(core.RunConfig{World: w, Seed: 1}, nil)
	if res.Err != nil {
		t.Fatalf("record: %v", res.Err)
	}
	return ip, log, res
}

// TestReplayRejectsOversizedRead tampers a read record so it carries more
// words than the read requested: a live read never returns that, and
// replaying it would write past the user buffer.
func TestReplayRejectsOversizedRead(t *testing.T) {
	ip, log, rec := recordSmall(t, oversizedSrc)
	if got := strings.Fields(string(rec.Output)); !reflect.DeepEqual(got, []string{"1", "5", "7"}) {
		t.Fatalf("recorded output %q, want 1 5 7", rec.Output)
	}
	read := &log.Inputs[0][1]
	if read.Op != types.BRead {
		t.Fatalf("second input record is %s, want read", types.BuiltinName(read.Op))
	}
	read.Data = append(read.Data, 99)

	mem, stream, memErr, streamErr := replayBoth(t, ip, log, core.RunConfig{World: oskit.NewWorld(2), Seed: 9})
	const want = "thread 0 read record carries 2 words for a 1-word request"
	for name, err := range map[string]error{"in-memory": memErr, "stream": streamErr} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s replay error %v, want %q", name, err, want)
		}
	}
	for name, res := range map[string]*vm.Result{"in-memory": mem, "stream": stream} {
		if res != nil && strings.Contains(string(res.Output), "99") {
			t.Errorf("%s replay wrote the extra word: output %q", name, res.Output)
		}
	}
}

// TestReplayRequiresAllInputs appends an input record the program never
// asks for: both replayer sources must report the log as not drained.
func TestReplayRequiresAllInputs(t *testing.T) {
	ip, log, _ := recordSmall(t, oversizedSrc)
	log.Inputs[0] = append(log.Inputs[0], replay.InputRec{Op: log.Inputs[0][0].Op, Val: 3})
	_, _, memErr, streamErr := replayBoth(t, ip, log, core.RunConfig{World: oskit.NewWorld(2), Seed: 9})
	for name, err := range map[string]error{"in-memory": memErr, "stream": streamErr} {
		if err == nil || !strings.Contains(err.Error(), "not fully consumed") {
			t.Errorf("%s replay error %v, want an undrained log", name, err)
		}
	}
}

// benchRecording instruments an embedded benchmark (no profile, so no
// function locks) and records it at the harness's seeds; replayRC returns
// a fresh replay configuration per call.
func benchRecording(t *testing.T, name string) (*core.Instrumented, *replay.Log, *vm.Result, func() core.RunConfig) {
	t.Helper()
	b := bench.ByName(name)
	prog, err := core.Load(b.Name, b.FullSource())
	if err != nil {
		t.Fatal(err)
	}
	ip, err := prog.Instrument(nil, instrument.AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, log, _ := ip.RecordTo(core.RunConfig{World: b.EvalWorld(4), Seed: 1234, Table: ip.Table}, nil)
	if res.Err != nil {
		t.Fatalf("%s record: %v", name, res.Err)
	}
	return ip, log, res, func() core.RunConfig {
		return core.RunConfig{World: b.EvalWorld(4), Seed: 987654, Table: ip.Table}
	}
}

// TestReplaySourcesAgree replays recordings that hold both input records
// and weak-lock order records through both constructors: the in-memory
// and the streamed source must drive identical executions.
func TestReplaySourcesAgree(t *testing.T) {
	for _, name := range []string{"pfscan", "knot", "pbzip2"} {
		ip, log, rec, replayRC := benchRecording(t, name)
		if log.InputCount() == 0 || log.OrderCount(vm.SyncWeakLock) == 0 {
			t.Fatalf("%s: want input and weak-lock records, got %d and %d",
				name, log.InputCount(), log.OrderCount(vm.SyncWeakLock))
		}
		mem, stream, memErr, streamErr := replayBoth(t, ip, log, replayRC())
		if memErr != nil || streamErr != nil {
			t.Fatalf("%s: replay errors: in-memory %v, stream %v", name, memErr, streamErr)
		}
		if mem.Hash64() != rec.Hash64() {
			t.Errorf("%s: replay hash %x, recorded %x", name, mem.Hash64(), rec.Hash64())
		}
		if mem.Hash64() != stream.Hash64() || mem.Makespan != stream.Makespan ||
			mem.Counters != stream.Counters || !reflect.DeepEqual(mem.WLStats, stream.WLStats) {
			t.Errorf("%s: in-memory and stream replays differ:\n%+v %+v\n%+v %+v",
				name, mem.Counters, mem.WLStats, stream.Counters, stream.WLStats)
		}
	}
}

// TestReplayerLeavesLogUnchanged runs two replays of one Log at once: the
// replayer shares the log's slices, so it must never write to them.
func TestReplayerLeavesLogUnchanged(t *testing.T) {
	ip, log, rec, replayRC := benchRecording(t, "pfscan")
	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	before, err := replay.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ip.Replay(log, replayRC())
			if err != nil {
				t.Errorf("concurrent replay: %v", err)
			} else if res.Hash64() != rec.Hash64() {
				t.Errorf("concurrent replay hash %x, recorded %x", res.Hash64(), rec.Hash64())
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(log, before) {
		t.Fatalf("replay modified the log")
	}
}
