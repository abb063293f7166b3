package replay

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/vm"
)

// buildStatLog writes a small but representative log: input records with
// and without data payloads, order records across several sync classes,
// and a forced-preemption record (the wide, anchor-carrying encoding).
func buildStatLog(t *testing.T) ([]byte, obs.LogStreams) {
	t.Helper()
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	lw.Input(0, InputRec{Op: 3, Val: 42})
	lw.Input(1, InputRec{Op: 5, Val: 7, Data: []int64{1, 2, 3}})
	lw.Input(0, InputRec{Op: 3, Val: 43})
	mu := vm.SyncKey{Class: vm.SyncMutex, ID: 16}
	wl := vm.SyncKey{Class: vm.SyncWeakLock, ID: 2}
	lw.Order(mu, OrderRec{Tid: 0, Kind: vm.EvAcquire})
	lw.Order(mu, OrderRec{Tid: 0, Kind: vm.EvRelease})
	lw.Order(wl, OrderRec{Tid: 1, Kind: vm.EvWLAcquire})
	lw.Order(wl, OrderRec{
		Tid: 0, Kind: vm.EvWLForcedRelease,
		Anchor: vm.ForcedAnchor{Instr: 99, Sync: 4, Blocked: true},
	})
	lw.Order(wl, OrderRec{Tid: 1, Kind: vm.EvWLRelease})
	if err := lw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes(), lw.Stats()
}

// What the writer wrote equals what Stat read: one ledger comparison.
func TestStatMatchesWriter(t *testing.T) {
	data, ws := buildStatLog(t)
	info, err := Stat(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if info.Streams != ws {
		t.Errorf("Stat ledger %+v, writer's %+v", info.Streams, ws)
	}
	if ws.TotalBytes != int64(len(data)) {
		t.Errorf("writer booked %d bytes, wrote %d", ws.TotalBytes, len(data))
	}
	if got := info.OrderByClass["weaklock"]; got != 3 {
		t.Errorf("OrderByClass[weaklock] = %d, want 3", got)
	}
	if got := info.OrderByClass["mutex"]; got != 2 {
		t.Errorf("OrderByClass[mutex] = %d, want 2", got)
	}
	if got := info.OrderByKind["wlforce"]; got != 1 {
		t.Errorf("OrderByKind[wlforce] = %d, want 1", got)
	}
}

func TestStatRejectsCorruption(t *testing.T) {
	data, _ := buildStatLog(t)
	if _, err := Stat(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Error("truncated log: want error")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := Stat(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic: want error")
	}
	// Flip a payload byte: the CRC must catch it.
	bad = append([]byte(nil), data...)
	bad[len(logMagic)+13+4] ^= 0xFF
	if _, err := Stat(bytes.NewReader(bad)); err == nil {
		t.Error("flipped payload byte: want error")
	}
	if _, err := Stat(bytes.NewReader(append(append([]byte(nil), data...), 0))); err == nil {
		t.Error("trailing garbage: want error")
	}
}
