package replay_test

import (
	"bytes"
	"io"
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

// records decodes every record of a stream, in stream order.
func records(tb testing.TB, data []byte) []replay.StreamRecord {
	tb.Helper()
	var recs []replay.StreamRecord
	cur := replay.NewLogCursor(bytes.NewReader(data))
	for {
		r, err := cur.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, r)
	}
}

// encode writes recs through a LogWriter in order and returns the stream.
func encode(recs []replay.StreamRecord) []byte {
	var out bytes.Buffer
	lw := replay.NewLogWriter(&out)
	for _, r := range recs {
		if r.IsInput {
			lw.Input(r.Tid, r.Input)
		} else {
			lw.Order(r.Key, r.Order)
		}
	}
	lw.Close()
	return out.Bytes()
}

// replayBytes replays a stream against ip.
func replayBytes(t *testing.T, ip *core.Instrumented, data []byte, rc core.RunConfig) (*vm.Result, error) {
	t.Helper()
	rep, err := replay.NewStreamReplayer(bytes.NewReader(data), rc.Cost)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	return core.Replay(ip.Prog, ip.Table, rep, rc)
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
	recs := records(t, log.Bytes())
	read := &recs[1]
	if !read.IsInput || read.Input.Op != types.BRead {
		t.Fatalf("second record is not a read: %+v", *read)
	}
	read.Input.Data = append(read.Input.Data, 99)

	res, err := replayBytes(t, ip, encode(recs), core.RunConfig{World: oskit.NewWorld(2), Seed: 9})
	const want = "thread 0 read record carries 2 words for a 1-word request"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("replay error %v, want %q", err, want)
	}
	if res != nil && strings.Contains(string(res.Output), "99") {
		t.Errorf("replay wrote the extra word: output %q", res.Output)
	}
}

// TestReplayRequiresAllInputs appends an input record the program never
// asks for: the replay must report the log as not drained.
func TestReplayRequiresAllInputs(t *testing.T) {
	ip, log, _ := recordSmall(t, oversizedSrc)
	recs := records(t, log.Bytes())
	recs = append(recs, replay.StreamRecord{IsInput: true, Input: replay.InputRec{Op: recs[0].Input.Op, Val: 3}})
	_, err := replayBytes(t, ip, encode(recs), core.RunConfig{World: oskit.NewWorld(2), Seed: 9})
	if err == nil || !strings.Contains(err.Error(), "not fully consumed") {
		t.Errorf("replay error %v, want an undrained log", err)
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

// TestReplayerLeavesLogUnchanged runs two replays of one recording at
// once: both decode the recording's bytes, and neither may write to them.
func TestReplayerLeavesLogUnchanged(t *testing.T) {
	ip, log, rec, replayRC := benchRecording(t, "pfscan")
	if log.InputCount() == 0 || log.OrderCount(vm.SyncWeakLock) == 0 {
		t.Fatalf("want input and weak-lock records, got %d and %d",
			log.InputCount(), log.OrderCount(vm.SyncWeakLock))
	}
	before := append([]byte(nil), log.Bytes()...)
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
	if !bytes.Equal(log.Bytes(), before) {
		t.Fatalf("replay modified the log")
	}
}
