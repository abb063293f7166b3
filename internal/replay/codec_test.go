package replay

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/minic/types"
	"repro/internal/vm"
)

// sampleRecords is a small recording in stream order: input records with
// and without data, order records on a mutex and a weak-lock, and a
// blocked forced preemption (the wide, anchor-carrying encoding).
func sampleRecords() []StreamRecord {
	k1 := vm.SyncKey{Class: vm.SyncMutex, ID: 100}
	k2 := vm.SyncKey{Class: vm.SyncWeakLock, ID: 5}
	return []StreamRecord{
		{IsInput: true, Tid: 0, Input: InputRec{Op: types.BOpen, Val: 3}},
		{IsInput: true, Tid: 0, Input: InputRec{Op: types.BRead, Val: 4, Data: []int64{9, 8, 7, 6}}},
		{IsInput: true, Tid: 2, Input: InputRec{Op: types.BRnd, Val: 42}},
		{Key: k1, Order: OrderRec{Tid: 1, Kind: vm.EvAcquire}},
		{Key: k1, Order: OrderRec{Tid: 2, Kind: vm.EvAcquire}},
		{Key: k2, Order: OrderRec{Tid: 1, Kind: vm.EvWLAcquire}},
		{Key: k2, Order: OrderRec{Tid: 1, Kind: vm.EvWLForcedRelease,
			Anchor: vm.ForcedAnchor{Instr: 12345, Sync: 7, Blocked: true}}},
		{Key: k2, Order: OrderRec{Tid: 2, Kind: vm.EvWLAcquire}},
	}
}

// encode writes recs through a LogWriter in order and returns the stream.
func encode(recs []StreamRecord) []byte {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	for _, r := range recs {
		if r.IsInput {
			lw.Input(r.Tid, r.Input)
		} else {
			lw.Order(r.Key, r.Order)
		}
	}
	lw.Close()
	return buf.Bytes()
}

// decode reads every record of a stream through a LogCursor, in stream
// order.
func decode(data []byte) ([]StreamRecord, error) {
	var recs []StreamRecord
	cur := NewLogCursor(bytes.NewReader(data))
	for {
		r, err := cur.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
}

// sameRecords reports whether a and b hold the same input records in the
// same order and the same order records in the same order. How the two
// kinds interleave is the writer's chunking, not the recording.
func sameRecords(a, b []StreamRecord) bool {
	split := func(recs []StreamRecord) (in, ord []StreamRecord) {
		for _, r := range recs {
			if r.IsInput {
				in = append(in, r)
			} else {
				ord = append(ord, r)
			}
		}
		return in, ord
	}
	ai, ao := split(a)
	bi, bo := split(b)
	return reflect.DeepEqual(ai, bi) && reflect.DeepEqual(ao, bo)
}

func TestLogRoundTrip(t *testing.T) {
	want := sampleRecords()
	got, err := decode(encode(want))
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(want, got) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", want, got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decode([]byte("not a log")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestEmptyLogRoundTrip(t *testing.T) {
	got, err := decode(encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty log round trip: %+v", got)
	}
}
