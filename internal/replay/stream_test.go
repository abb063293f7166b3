package replay_test

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/oskit"
	"repro/internal/replay"
	"repro/internal/vm"
)

// TestStreamRecordAndReplay runs the forced-preemption scenario with the
// recorder streaming to a writer, then replays bit-identically straight
// from the streamed bytes — the full streaming path, including the
// forced-preemption prescan.
func TestStreamRecordAndReplay(t *testing.T) {
	p, tbl := forcedSetup(t)

	var stream bytes.Buffer
	rec := replay.NewRecorder(oskit.NewWorld(1), vm.DefaultCost(), &stream)
	recRes := vm.Run(p, vm.Config{
		Inputs: rec, Monitor: rec, WL: tbl,
		Seed: 3, WLTimeout: 50_000,
	})
	if recRes.Err != nil {
		t.Fatalf("record: %v", recRes.Err)
	}
	if recRes.WLStats.Timeouts == 0 {
		t.Fatalf("scenario should force a preemption during recording")
	}
	log, err := rec.Close()
	if err != nil {
		t.Fatalf("close stream: %v", err)
	}
	lw := rec.Writer()

	// Compressed byte attribution: the order stream carried records (this
	// scenario performs no input ops), and all stream bytes are
	// magic + chunks + end marker.
	if lw.OrderBytesWritten() <= 0 {
		t.Fatalf("order byte counter not populated: ord=%d", lw.OrderBytesWritten())
	}
	if want := int64(stream.Len()) - 8 - 13; lw.InputBytesWritten()+lw.OrderBytesWritten() != want {
		t.Errorf("counter sum %d != stream minus framing %d",
			lw.InputBytesWritten()+lw.OrderBytesWritten(), want)
	}

	// The streamed bytes are the recording, and decode to its counts.
	if !bytes.Equal(stream.Bytes(), log.Bytes()) {
		t.Fatalf("streamed %d bytes, the recording holds %d different ones", stream.Len(), len(log.Bytes()))
	}
	info, err := replay.Stat(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatalf("decode streamed log: %v", err)
	}
	if info.Streams.InputRecords != int64(log.InputCount()) || info.Streams.OrderRecords != int64(log.OrderCount()) {
		t.Fatalf("streamed log mismatch: inputs %d/%d orders %d/%d",
			info.Streams.InputRecords, log.InputCount(), info.Streams.OrderRecords, log.OrderCount())
	}

	for _, repSeed := range []uint64{999, 7} {
		sr, err := replay.NewStreamReplayer(bytes.NewReader(stream.Bytes()), vm.DefaultCost())
		if err != nil {
			t.Fatalf("open stream replayer: %v", err)
		}
		repRes := vm.Run(p, vm.Config{
			Inputs: sr, Monitor: sr, WL: tbl,
			Seed: repSeed, DisableTimeouts: true,
		})
		if repRes.Err != nil {
			t.Fatalf("stream replay seed %d: %v", repSeed, repRes.Err)
		}
		if sr.Err() != nil {
			t.Fatalf("stream replay seed %d divergence: %v", repSeed, sr.Err())
		}
		if !sr.Drained() {
			t.Fatalf("stream replay seed %d: stream not drained", repSeed)
		}
		if repRes.Hash64() != recRes.Hash64() {
			t.Fatalf("stream replay seed %d diverged:\nrecorded %q\nreplayed %q",
				repSeed, recRes.Output, repRes.Output)
		}
		if repRes.WLStats.Timeouts != recRes.WLStats.Timeouts {
			t.Errorf("stream replay injected %d preemptions, recorded %d",
				repRes.WLStats.Timeouts, recRes.WLStats.Timeouts)
		}
	}
}

// TestStreamReplayerDetectsDivergence feeds a stream recorded from one
// run to a program expecting different input and checks the divergence is
// reported, not silently absorbed.
func TestStreamReplayerDetectsDivergence(t *testing.T) {
	key := vm.SyncKey{Class: vm.SyncMutex, ID: 7}
	data := encode([]replay.StreamRecord{{Key: key, Order: replay.OrderRec{Tid: 2, Kind: vm.EvAcquire}}})
	sr, err := replay.NewStreamReplayer(bytes.NewReader(data), vm.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	if sr.TryProceed(key, vm.EvAcquire, 1) {
		t.Errorf("thread 1 must wait (thread 2 recorded first)")
	}
	if !sr.TryProceed(key, vm.EvAcquire, 2) {
		t.Errorf("thread 2 should proceed")
	}
	sr.Commit(key, vm.EvAcquire, 2, 0)
	// Log exhausted: another op on the key is a divergence.
	if sr.TryProceed(key, vm.EvAcquire, 2) {
		t.Errorf("extra op must not proceed")
	}
	if sr.Err() == nil {
		t.Fatalf("extra op must be reported as divergence")
	}
}

// queueWatch is a replayer that notes, at every commit, how many decoded
// records wait in its queues.
type queueWatch struct {
	*replay.Replayer
	peak int
}

func (q *queueWatch) Commit(key vm.SyncKey, kind vm.SyncEventKind, tid int, now int64) int64 {
	cost := q.Replayer.Commit(key, kind, tid, now)
	q.peak = max(q.peak, replay.Queued(q.Replayer))
	return cost
}

// TestReplayQueuesStayBounded replays pbzip2 under instr. Its input
// records reach the stream in a few chunks, each flushed only when full,
// behind thousands of order records: a thread's read must not make the
// replayer decode those order records into its queues, which hold only
// what the replayed schedule runs ahead of the recorded order.
func TestReplayQueuesStayBounded(t *testing.T) {
	b := bench.ByName("pbzip2")
	prog, err := core.Load(b.Name, b.FullSource())
	if err != nil {
		t.Fatal(err)
	}
	config, _ := core.ParseConfig("instr")
	ip, err := prog.InstrumentAs(config, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc := core.RunConfig{World: b.EvalWorld(bench.DefaultWorkers), Seed: core.DefaultSeed, Table: ip.Table}
	recRes, log, _ := ip.RecordTo(rc, nil)
	if recRes.Err != nil {
		t.Fatalf("record: %v", recRes.Err)
	}
	qw := &queueWatch{Replayer: openStream(t, log.Bytes())}
	repRes := vm.Run(ip.Prog.Code, vm.Config{Inputs: qw, Monitor: qw, WL: ip.Table, Seed: core.DefaultReplaySeed, DisableTimeouts: true})
	if repRes.Err != nil || qw.Err() != nil || !qw.Drained() || repRes.Hash64() != recRes.Hash64() {
		t.Fatalf("replay: run %v, replayer %v, drained %v", repRes.Err, qw.Err(), qw.Drained())
	}
	const bound = 300
	t.Logf("peak of %d queued records over %d input and %d order records", qw.peak, log.InputCount(), log.OrderCount())
	if qw.peak > bound {
		t.Errorf("%d records queued at once, want at most %d", qw.peak, bound)
	}
}
