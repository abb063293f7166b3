package replay

import (
	"testing"

	"repro/internal/minic/types"
	"repro/internal/oskit"
	"repro/internal/vm"
)

func TestRecorderLogsInputs(t *testing.T) {
	w := oskit.NewWorld(1)
	w.AddFile(5, []int64{10, 20, 30})
	rec := NewRecorder(w, vm.DefaultCost())

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
	log := rec.Log()
	if log.InputCount() != 2 {
		t.Errorf("input count = %d, want 2", log.InputCount())
	}
	if got := log.Inputs[0][1]; got.Op != types.BRead || got.Val != 3 || got.Data[2] != 30 {
		t.Errorf("read record wrong: %+v", got)
	}
}

func TestRecorderLogsOrder(t *testing.T) {
	rec := NewRecorder(oskit.NewWorld(1), vm.DefaultCost())
	key := vm.SyncKey{Class: vm.SyncMutex, ID: 42}
	if !rec.TryProceed(key, vm.EvAcquire, 1) {
		t.Fatal("recording must never gate")
	}
	rec.Commit(key, vm.EvAcquire, 1, 10)
	rec.Commit(key, vm.EvAcquire, 2, 20)
	log := rec.Log()
	if log.OrderCount() != 2 {
		t.Fatalf("order count = %d", log.OrderCount())
	}
	if log.Orders[key][0].Tid != 1 || log.Orders[key][1].Tid != 2 {
		t.Errorf("order wrong: %+v", log.Orders[key])
	}
}

func TestReplayerEnforcesOrder(t *testing.T) {
	log := NewLog()
	key := vm.SyncKey{Class: vm.SyncMutex, ID: 7}
	log.Orders[key] = []OrderRec{{Tid: 2, Kind: vm.EvAcquire}, {Tid: 1, Kind: vm.EvAcquire}}
	rep := NewReplayer(log, vm.DefaultCost())

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
	log := NewLog()
	log.Inputs[0] = []InputRec{{Op: types.BRead, Val: 4}}
	rep := NewReplayer(log, vm.DefaultCost())
	_, _, _, _, err := rep.Input(0, types.BRecv, []int64{1, 2, 3}, nil, 0)
	if err == nil {
		t.Fatalf("op mismatch must diverge")
	}
	rep2 := NewReplayer(NewLog(), vm.DefaultCost())
	_, _, _, _, err = rep2.Input(0, types.BRead, []int64{1, 2, 3}, nil, 0)
	if err == nil {
		t.Fatalf("extra input must diverge")
	}
}

func TestReplayerDetectsExtraSyncOps(t *testing.T) {
	rep := NewReplayer(NewLog(), vm.DefaultCost())
	key := vm.SyncKey{Class: vm.SyncMutex, ID: 9}
	if rep.TryProceed(key, vm.EvAcquire, 0) {
		t.Errorf("extra op must not proceed")
	}
	if rep.Err() == nil {
		t.Errorf("divergence should be recorded")
	}
}

func TestOrderCountByClass(t *testing.T) {
	log := NewLog()
	log.Orders[vm.SyncKey{Class: vm.SyncMutex, ID: 1}] = []OrderRec{{}, {}}
	log.Orders[vm.SyncKey{Class: vm.SyncWeakLock, ID: 2}] = []OrderRec{{}}
	if log.OrderCount(vm.SyncMutex) != 2 {
		t.Errorf("mutex count wrong")
	}
	if log.OrderCount(vm.SyncWeakLock) != 1 {
		t.Errorf("weaklock count wrong")
	}
	if log.OrderCount() != 3 {
		t.Errorf("total count wrong")
	}
}
