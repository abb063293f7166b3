package replay_test

import (
	"bytes"
	"testing"

	"repro/internal/oskit"
	"repro/internal/replay"
	"repro/internal/vm"
)

// TestStreamRecordAndReplay runs the forced-preemption scenario with a
// LogWriter attached to the recorder, then replays bit-identically straight
// from the byte stream with NewStreamReplayer — the full streaming path,
// including the forced-preemption prescan.
func TestStreamRecordAndReplay(t *testing.T) {
	p, tbl := forcedSetup(t)

	var stream bytes.Buffer
	rec := replay.NewRecorder(oskit.NewWorld(1), vm.DefaultCost())
	lw := replay.NewLogWriter(&stream)
	rec.AttachWriter(lw)
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
	if err := lw.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}

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

	// The streamed bytes decode to the recorder's in-memory log.
	decoded, err := replay.ReadLog(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatalf("decode streamed log: %v", err)
	}
	if decoded.InputCount() != rec.Log().InputCount() ||
		decoded.OrderCount() != rec.Log().OrderCount() {
		t.Fatalf("streamed log mismatch: inputs %d/%d orders %d/%d",
			decoded.InputCount(), rec.Log().InputCount(),
			decoded.OrderCount(), rec.Log().OrderCount())
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
	l := replay.NewLog()
	key := vm.SyncKey{Class: vm.SyncMutex, ID: 7}
	l.Orders[key] = []replay.OrderRec{{Tid: 2, Kind: vm.EvAcquire}}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := replay.NewStreamReplayer(bytes.NewReader(buf.Bytes()), vm.DefaultCost())
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
