package replay

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/vm"
)

func words(vs ...int64) []byte {
	var buf bytes.Buffer
	for _, v := range vs {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// namedPayload is a chunk payload holding records no well-formed log
// contains. Wrapped in a CRC-valid chunk (chunkStream) it reaches the
// record validation that guards uploaded logs.
type namedPayload struct {
	name    string
	payload []byte
}

var invalidInputPayloads = []namedPayload{
	// A data length can be well under the chunk's byte length yet exceed
	// the words actually remaining.
	{"data length beyond remaining words", words(0, 1, 2, 20)},
	{"negative data length", words(0, 1, 2, -3)},
	{"truncated input record", words(0, 1, 2)},
}

var invalidOrderPayloads = []namedPayload{
	{"bad sync class", words(99, 0, 0)},
	{"hook-only kind", words(int64(vm.SyncMutex), 7, int64(vm.EvJoin))},
	// Found by fuzzing: an oversized tid silently truncated (possibly to
	// a negative value) instead of failing.
	{"tid beyond int32", words(0, 0x3030303030303030, 0x3030303030303001)},
	{"truncated forced anchor", words(int64(vm.SyncWeakLock), 5, 1<<8|int64(vm.EvWLForcedRelease), 12345)},
}

// requireRejected checks that the cursor and NewStreamReplayer both
// reject every payload, each wrapped in one CRC-valid input or order chunk.
func requireRejected(t *testing.T, order bool, cases []namedPayload) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := chunkStream(order, c.payload)
			if _, err := decode(data); err == nil {
				t.Errorf("the cursor accepted it")
			}
			if _, err := NewStreamReplayer(bytes.NewReader(data), vm.CostModel{}); err == nil {
				t.Errorf("NewStreamReplayer accepted it")
			}
		})
	}
}

// TestDecodeInputBoundsRegression pins the dn bounds check of the input
// record decoder behind a valid CRC: a data length can be well under the
// chunk's byte length yet exceed the words actually remaining, and such
// records, like negative lengths and truncated records, must fail cleanly
// up front. A data length exactly filling the chunk still decodes.
func TestDecodeInputBoundsRegression(t *testing.T) {
	requireRejected(t, false, invalidInputPayloads)

	recs, err := decode(chunkStream(false, words(0, 1, 2, 2, 11, 22)))
	if err != nil || len(recs) != 1 {
		t.Fatalf("data length == remaining words must decode: %v", err)
	}
	if got := recs[0].Input.Data; len(got) != 2 || got[0] != 11 || got[1] != 22 {
		t.Fatalf("boundary decode wrong: %v", got)
	}
}

// TestDecodeOrderValidation checks record-level validation of order
// chunks behind a valid CRC: unknown sync classes, hook-only event kinds,
// oversized tids and truncated records never decode.
func TestDecodeOrderValidation(t *testing.T) {
	requireRejected(t, true, invalidOrderPayloads)
}

// TestLogWriterCounters checks the per-stream compressed byte attribution:
// both counters populate when both streams carry records, and together
// they account for every byte except the magic and end marker.
func TestLogWriterCounters(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	lw.Input(0, InputRec{Op: 1, Val: 2, Data: []int64{3, 4}})
	lw.Order(vm.SyncKey{Class: vm.SyncMutex, ID: 9}, OrderRec{Tid: 1, Kind: vm.EvAcquire})
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	if lw.InputBytesWritten() <= 0 || lw.OrderBytesWritten() <= 0 {
		t.Fatalf("counters not populated: in=%d ord=%d",
			lw.InputBytesWritten(), lw.OrderBytesWritten())
	}
	if want := int64(buf.Len()) - 8 - 13; lw.InputBytesWritten()+lw.OrderBytesWritten() != want {
		t.Fatalf("counter sum %d != stream minus framing %d",
			lw.InputBytesWritten()+lw.OrderBytesWritten(), want)
	}
}

// TestChunkCorruptionDetected flips single bytes across an encoded log and
// requires every corruption either to be detected or to decode to the
// identical records (a flip inside gzip padding can be inert) — never a
// silently different log, never a panic.
func TestChunkCorruptionDetected(t *testing.T) {
	want := sampleRecords()
	orig := encode(want)
	for i := range orig {
		mut := append([]byte{}, orig...)
		mut[i] ^= 0x40
		got, err := decode(mut)
		if err == nil && !sameRecords(want, got) {
			t.Fatalf("byte %d flip silently accepted as a different log", i)
		}
	}

	// Truncations at every length must error.
	for n := 0; n < len(orig); n++ {
		if _, err := decode(orig[:n]); err == nil {
			t.Fatalf("truncation to %d bytes must be rejected", n)
		}
	}

	// Trailing garbage after the end marker must error.
	if _, err := decode(append(append([]byte{}, orig...), 0)); err == nil {
		t.Fatalf("trailing garbage after end marker must be rejected")
	}
}
