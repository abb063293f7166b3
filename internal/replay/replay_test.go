package replay

import (
	"bytes"
	"testing"

	"repro/internal/minic/types"
	"repro/internal/oskit"
	"repro/internal/vm"
)

// replayerOver returns a replayer over recs encoded as one stream.
func replayerOver(t *testing.T, recs []StreamRecord) *Replayer {
	t.Helper()
	rep, err := NewStreamReplayer(bytes.NewReader(encode(recs)), vm.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRecorderLogsInputs(t *testing.T) {
	w := oskit.NewWorld(1)
	w.AddFile(5, []int64{10, 20, 30})
	rec := NewRecorder(w, vm.DefaultCost(), nil)

	fd, _, _, cost, err := rec.Input(0, types.BOpen, []int64{5}, nil, 0)
	if err != nil || fd < 0 {
		t.Fatalf("open: %v fd=%d", err, fd)
	}
	if cost <= 0 {
		t.Errorf("logging should cost cycles")
	}
	n, data, _, _, err := rec.Input(0, types.BRead, []int64{fd, 0, 3}, nil, 100)
	if err != nil || n != 3 || len(data) != 3 {
		t.Fatalf("read: %v n=%d data=%v", err, n, data)
	}
	log, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	if log.InputCount() != 2 {
		t.Errorf("input count = %d, want 2", log.InputCount())
	}
	recs, err := decode(log.Bytes())
	if err != nil || len(recs) != 2 {
		t.Fatalf("decode: %v, %d records", err, len(recs))
	}
	if got := recs[1].Input; got.Op != types.BRead || got.Val != 3 || got.Data[2] != 30 {
		t.Errorf("read record wrong: %+v", got)
	}
}

func TestRecorderLogsOrder(t *testing.T) {
	rec := NewRecorder(oskit.NewWorld(1), vm.DefaultCost(), nil)
	key := vm.SyncKey{Class: vm.SyncMutex, ID: 42}
	if !rec.TryProceed(key, vm.EvAcquire, 1) {
		t.Fatal("recording must never gate")
	}
	rec.Commit(key, vm.EvAcquire, 1, 10)
	rec.Commit(key, vm.EvAcquire, 2, 20)
	log, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	if log.OrderCount() != 2 {
		t.Fatalf("order count = %d", log.OrderCount())
	}
	recs, err := decode(log.Bytes())
	if err != nil || len(recs) != 2 {
		t.Fatalf("decode: %v, %d records", err, len(recs))
	}
	if recs[0].Key != key || recs[0].Order.Tid != 1 || recs[1].Order.Tid != 2 {
		t.Errorf("order wrong: %+v", recs)
	}
}

func TestReplayerEnforcesOrder(t *testing.T) {
	key := vm.SyncKey{Class: vm.SyncMutex, ID: 7}
	rep := replayerOver(t, []StreamRecord{
		{Key: key, Order: OrderRec{Tid: 2, Kind: vm.EvAcquire}},
		{Key: key, Order: OrderRec{Tid: 1, Kind: vm.EvAcquire}},
	})

	if rep.TryProceed(key, vm.EvAcquire, 1) {
		t.Errorf("thread 1 must wait (thread 2 recorded first)")
	}
	if !rep.TryProceed(key, vm.EvAcquire, 2) {
		t.Errorf("thread 2 should proceed")
	}
	rep.Commit(key, vm.EvAcquire, 2, 0)
	if !rep.TryProceed(key, vm.EvAcquire, 1) {
		t.Errorf("thread 1 should proceed after thread 2 committed")
	}
	rep.Commit(key, vm.EvAcquire, 1, 0)
	if !rep.Drained() {
		t.Errorf("log should be drained")
	}
	if rep.Err() != nil {
		t.Errorf("unexpected divergence: %v", rep.Err())
	}
}

func TestReplayerDetectsInputDivergence(t *testing.T) {
	rep := replayerOver(t, []StreamRecord{{IsInput: true, Input: InputRec{Op: types.BRead, Val: 4}}})
	_, _, _, _, err := rep.Input(0, types.BRecv, []int64{1, 2, 3}, nil, 0)
	if err == nil {
		t.Fatalf("op mismatch must diverge")
	}
	rep2 := replayerOver(t, nil)
	_, _, _, _, err = rep2.Input(0, types.BRead, []int64{1, 2, 3}, nil, 0)
	if err == nil {
		t.Fatalf("extra input must diverge")
	}
}

func TestReplayerDetectsExtraSyncOps(t *testing.T) {
	rep := replayerOver(t, nil)
	key := vm.SyncKey{Class: vm.SyncMutex, ID: 9}
	if rep.TryProceed(key, vm.EvAcquire, 0) {
		t.Errorf("extra op must not proceed")
	}
	if rep.Err() == nil {
		t.Errorf("divergence should be recorded")
	}
}

// The recording's counts are the writer's, by sync class and by kind.
func TestOrderCountByClass(t *testing.T) {
	rec := NewRecorder(oskit.NewWorld(1), vm.DefaultCost(), nil)
	mu := vm.SyncKey{Class: vm.SyncMutex, ID: 1}
	rec.Commit(mu, vm.EvAcquire, 0, 0)
	rec.Commit(mu, vm.EvRelease, 0, 0)
	rec.Commit(vm.SyncKey{Class: vm.SyncWeakLock, ID: 2}, vm.EvWLAcquire, 1, 0)
	log, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	if log.OrderCount(vm.SyncMutex) != 2 {
		t.Errorf("mutex count wrong")
	}
	if log.OrderCount(vm.SyncWeakLock) != 1 {
		t.Errorf("weaklock count wrong")
	}
	if log.OrderCount(vm.SyncMutex, vm.SyncWeakLock) != 3 || log.OrderCount() != 3 {
		t.Errorf("total count wrong")
	}
	if log.KindCount(vm.EvWLAcquire) != 1 || log.KindCount(vm.EvAcquire) != 1 || log.KindCount(vm.EvWLForcedRelease) != 0 {
		t.Errorf("kind counts wrong")
	}
}
