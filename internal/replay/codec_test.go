package replay

import (
	"bytes"
	"testing"

	"repro/internal/minic/types"
	"repro/internal/vm"
)

func sampleLog() *Log {
	l := NewLog()
	l.Inputs[0] = []InputRec{
		{Op: types.BOpen, Val: 3},
		{Op: types.BRead, Val: 4, Data: []int64{9, 8, 7, 6}},
	}
	l.Inputs[2] = []InputRec{{Op: types.BRnd, Val: 42}}
	k1 := vm.SyncKey{Class: vm.SyncMutex, ID: 100}
	k2 := vm.SyncKey{Class: vm.SyncWeakLock, ID: 5}
	l.Orders[k1] = []OrderRec{
		{Tid: 1, Kind: vm.EvAcquire},
		{Tid: 2, Kind: vm.EvAcquire},
	}
	l.Orders[k2] = []OrderRec{
		{Tid: 1, Kind: vm.EvWLAcquire},
		{Tid: 1, Kind: vm.EvWLForcedRelease,
			Anchor: vm.ForcedAnchor{Instr: 12345, Sync: 7, Blocked: true}},
		{Tid: 2, Kind: vm.EvWLAcquire},
	}
	return l
}

func logsEqual(a, b *Log) bool {
	if len(a.Inputs) != len(b.Inputs) || len(a.Orders) != len(b.Orders) {
		return false
	}
	for tid, recs := range a.Inputs {
		other := b.Inputs[tid]
		if len(recs) != len(other) {
			return false
		}
		for i := range recs {
			if recs[i].Op != other[i].Op || recs[i].Val != other[i].Val ||
				len(recs[i].Data) != len(other[i].Data) {
				return false
			}
			for j := range recs[i].Data {
				if recs[i].Data[j] != other[i].Data[j] {
					return false
				}
			}
		}
	}
	for k, recs := range a.Orders {
		other := b.Orders[k]
		if len(recs) != len(other) {
			return false
		}
		for i := range recs {
			if recs[i] != other[i] {
				return false
			}
		}
	}
	return true
}

func TestLogRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !logsEqual(l, got) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", l, got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := ReadLog(bytes.NewReader([]byte("not a log"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestEmptyLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewLog().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.InputCount() != 0 || got.OrderCount() != 0 {
		t.Fatalf("empty log round trip: %+v", got)
	}
}
