package replay_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/oskit"
	"repro/internal/replay"
	"repro/internal/vm"
	"repro/internal/weaklock"
)

// forcedRecording is forcedSrc recorded with a forced preemption, decoded
// into its records in commit order, with what replaying it needs.
type forcedRecording struct {
	prog   *core.Program
	table  *weaklock.Table
	inputs []replay.StreamRecord
	orders []replay.StreamRecord
}

func recordForced(tb testing.TB) *forcedRecording {
	tb.Helper()
	prog, err := core.Load("forced.mc", forcedSrc)
	if err != nil {
		tb.Fatal(err)
	}
	tbl := weaklock.NewTable()
	tbl.Add(weaklock.KindInstr, "t", false)
	rec := replay.NewRecorder(oskit.NewWorld(1), vm.DefaultCost(), nil)
	r := vm.Run(prog.Code, vm.Config{Inputs: rec, Monitor: rec, WL: tbl, Seed: 3, WLTimeout: 50_000})
	if r.Err != nil || r.WLStats.Timeouts == 0 {
		tb.Fatalf("record: err %v, %d timeouts; want a forced preemption", r.Err, r.WLStats.Timeouts)
	}
	log, err := rec.Close()
	if err != nil {
		tb.Fatal(err)
	}
	fr := &forcedRecording{prog: prog, table: tbl}
	for _, sr := range records(tb, log.Bytes()) {
		if sr.IsInput {
			fr.inputs = append(fr.inputs, sr)
		} else {
			fr.orders = append(fr.orders, sr)
		}
	}
	return fr
}

// An edit rewrites one field of one order record: editLen bytes holding
// the record index (mod the record count), the field (mod editFields) and
// a little-endian int64 value.
const (
	editLen    = 10
	editFields = 6
)

const (
	fieldClass = iota
	fieldID
	fieldTid
	fieldKind
	fieldInstr
	fieldSync // Anchor.Sync<<1 | Blocked, as the codec packs it
)

func edit(idx, field int, v int64) []byte {
	b := make([]byte, editLen)
	b[0], b[1] = byte(idx), byte(field)
	binary.LittleEndian.PutUint64(b[2:], uint64(v))
	return b
}

// rewrite applies the edits in data to a copy of fr's order records and
// encodes the recording again.
func (fr *forcedRecording) rewrite(data []byte) []byte {
	orders := append([]replay.StreamRecord(nil), fr.orders...)
	for ; len(data) >= editLen; data = data[editLen:] {
		r := &orders[int(data[0])%len(orders)]
		v := int64(binary.LittleEndian.Uint64(data[2:]))
		switch data[1] % editFields {
		case fieldClass:
			r.Key.Class = vm.SyncClass(v)
		case fieldID:
			r.Key.ID = v
		case fieldTid:
			r.Order.Tid = int32(v)
		case fieldKind:
			r.Order.Kind = vm.SyncEventKind(v)
		case fieldInstr:
			r.Order.Anchor.Instr = v
		case fieldSync:
			r.Order.Anchor.Sync, r.Order.Anchor.Blocked = v>>1, v&1 == 1
		}
	}
	return encode(append(append([]replay.StreamRecord(nil), fr.inputs...), orders...))
}

// replayStream replays a stream through NewStreamReplayer and core.Replay
// with a small step budget. It must never panic, and a run that failed
// must say so through the returned error.
func (fr *forcedRecording) replayStream(t *testing.T, stream []byte) error {
	rep, err := replay.NewStreamReplayer(bytes.NewReader(stream), vm.DefaultCost())
	if err != nil {
		return err
	}
	r, err := core.Replay(fr.prog, fr.table, rep, core.RunConfig{
		World: oskit.NewWorld(1), Seed: 31337, MaxSteps: 200_000,
	})
	if err == nil && (r.Err != nil || rep.Err() != nil || !rep.Drained()) {
		t.Fatalf("replay failed without an error: run %v, replayer %v, drained %v", r.Err, rep.Err(), rep.Drained())
	}
	return err
}

// forcedOnForeignKey returns the edits that move the recording's forced
// preemption onto weak-lock key id, anchor it at its thread's first
// instruction with the thread running, and put main's preceding spawn
// record on the same key first. The preempted thread then reaches its
// anchor while another thread's record heads the key's queue, so the VM's
// checkForcedAt parks it on that key's replay gate.
func (fr *forcedRecording) forcedOnForeignKey(tb testing.TB, id int64) []byte {
	forced, spawn := -1, -1
	for i, sr := range fr.orders {
		if sr.Order.Kind == vm.EvWLForcedRelease {
			forced = i
			break
		}
		if sr.Key == vm.SpawnKey && sr.Order.Tid == 0 {
			spawn = i
		}
	}
	if forced < 0 || spawn < 0 || forced > 255 {
		tb.Fatalf("recording lacks a spawn record before a forced preemption (forced %d, spawn %d)", forced, spawn)
	}
	var e []byte
	e = append(e, edit(forced, fieldID, id)...)
	e = append(e, edit(forced, fieldInstr, 0)...)
	e = append(e, edit(forced, fieldSync, 0)...)
	e = append(e, edit(spawn, fieldClass, int64(vm.SyncWeakLock))...)
	e = append(e, edit(spawn, fieldID, id)...)
	return e
}

// foreignLockIDs are weak-lock IDs a log may name that index nothing: below
// the table, the table's length, and far above it.
var foreignLockIDs = []int64{-1, 1, 1 << 40, math.MaxInt64}

// TestReplayForcedGateOnForeignLockID replays recordings whose forced
// preemption names a lock ID outside the one-lock table, on a key where
// another thread's record comes first, so the preempted thread parks on
// that key's replay gate. Each must fail with an error, not a panic.
func TestReplayForcedGateOnForeignLockID(t *testing.T) {
	fr := recordForced(t)
	if err := fr.replayStream(t, fr.rewrite(nil)); err != nil {
		t.Fatalf("unedited recording: %v", err)
	}
	for _, id := range foreignLockIDs {
		err := fr.replayStream(t, fr.rewrite(fr.forcedOnForeignKey(t, id)))
		if err == nil {
			t.Errorf("forced preemption on weaklock:%d replayed cleanly", id)
		}
		t.Logf("weaklock:%d: %v", id, err)
	}
}

// FuzzReplayStream replays corrupt recordings through the VM: the fuzzer
// rewrites order records' class, lock ID, tid, kind and anchor in a
// recording with a forced preemption, and the result is encoded and
// replayed from the stream. No input may panic, and every failed replay
// must return an error.
func FuzzReplayStream(f *testing.F) {
	fr := recordForced(f)
	f.Add([]byte{})
	for i, sr := range fr.orders {
		if i > 255 || sr.Key.Class != vm.SyncWeakLock {
			continue
		}
		for _, id := range foreignLockIDs {
			f.Add(edit(i, fieldID, id))
		}
	}
	for _, id := range foreignLockIDs {
		f.Add(fr.forcedOnForeignKey(f, id))
	}
	f.Add(edit(0, fieldClass, 200))
	f.Add(edit(1, fieldTid, -1))
	f.Add(edit(2, fieldKind, int64(vm.EvWLForcedRelease)))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr.replayStream(t, fr.rewrite(data))
	})
}
