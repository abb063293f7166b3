package replay

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/oskit"
	"repro/internal/vm"
)

// realLog records an actual concurrent run with input operations, so the
// fuzz corpora are seeded with genuinely-shaped logs rather than only
// hand-built ones.
func realLog(f *testing.F) *Log {
	f.Helper()
	src := `
int m;
int g;
void worker(int n) {
    for (int i = 0; i < 5; i++) {
        lock(&m);
        g = g + rnd(10);
        unlock(&m);
    }
}
int main(void) {
    int fd = open(5);
    int buf[4];
    read(fd, buf, 4);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    print(g + buf[0]);
    return 0;
}
`
	file := parser.MustParse("fuzzseed.mc", src)
	info := types.MustCheck(file)
	p, err := vm.Compile(info)
	if err != nil {
		f.Fatal(err)
	}
	w := oskit.NewWorld(1)
	w.AddFile(5, []int64{10, 20, 30, 40})
	rec := NewRecorder(w, vm.DefaultCost())
	r := vm.Run(p, vm.Config{Inputs: rec, Monitor: rec, Seed: 9})
	if r.Err != nil {
		f.Fatal(r.Err)
	}
	return rec.Log()
}

// seedVariants adds data plus truncated and bit-flipped mutants of it.
func seedVariants(f *testing.F, data []byte) {
	f.Helper()
	f.Add(data)
	if len(data) > 1 {
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		for _, pos := range []int{0, len(data) / 3, len(data) - 1} {
			mut := append([]byte{}, data...)
			mut[pos] ^= 0x20
			f.Add(mut)
		}
	}
}

// payloads returns l's input and order records as raw chunk payloads, in
// the order Log.WriteTo streams them.
func payloads(l *Log) (in, ord []byte) {
	lw := NewLogWriter(io.Discard)
	for _, tid := range l.sortedInputTids() {
		for _, rec := range l.Inputs[tid] {
			lw.Input(tid, rec)
		}
	}
	for _, key := range l.sortedOrderKeys() {
		for _, rec := range l.Orders[key] {
			lw.Order(key, rec)
		}
	}
	return lw.inBuf.Bytes(), lw.ordBuf.Bytes()
}

// chunkStream wraps payload, cut to whole words, in one CRC-valid input
// or order chunk between the magic and the end marker, so decoding gets
// past the container checks to the record validation behind them.
func chunkStream(order bool, payload []byte) []byte {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	pending := &lw.inBuf
	if order {
		pending = &lw.ordBuf
	}
	pending.Write(payload[:len(payload)&^7])
	lw.Close()
	return buf.Bytes()
}

// checkStat requires Stat to accept exactly the stream ReadLog accepted
// (l, err), failing with the same error, and to count the records l holds.
func checkStat(t *testing.T, data []byte, l *Log, err error) {
	t.Helper()
	info, serr := Stat(bytes.NewReader(data))
	if (serr == nil) != (err == nil) || (err != nil && serr.Error() != err.Error()) {
		t.Fatalf("ReadLog error %v, Stat error %v", err, serr)
	}
	if err != nil {
		return
	}
	if info.Streams.InputRecords != int64(l.InputCount()) || info.Streams.OrderRecords != int64(l.OrderCount()) {
		t.Fatalf("Stat counted %d input and %d order records, the log holds %d and %d",
			info.Streams.InputRecords, info.Streams.OrderRecords, l.InputCount(), l.OrderCount())
	}
}

// checkChunkPayload wraps payload in one CRC-valid input or order chunk:
// ReadLog, NewStreamReplayer and Stat must never panic, must agree on what
// they accept, and every accepted log must round-trip through WriteTo.
func checkChunkPayload(t *testing.T, order bool, payload []byte) {
	t.Helper()
	data := chunkStream(order, payload)
	l, err := ReadLog(bytes.NewReader(data))
	if _, serr := NewStreamReplayer(bytes.NewReader(data), vm.CostModel{}); (serr == nil) != (err == nil) {
		t.Fatalf("ReadLog error %v, NewStreamReplayer error %v", err, serr)
	}
	checkStat(t, data, l, err)
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatalf("accepted log failed to re-encode: %v", err)
	}
	l2, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("re-encoded log failed to decode: %v", err)
	}
	if !logsEqual(l, l2) {
		t.Fatalf("chunk payload round-trip mismatch")
	}
}

// FuzzDecodeInput fuzzes the input record decoder behind the CRC, which
// is what guards uploaded logs (see checkChunkPayload).
func FuzzDecodeInput(f *testing.F) {
	realIn, _ := payloads(realLog(f))
	sampleIn, _ := payloads(sampleLog())
	seedVariants(f, realIn)
	seedVariants(f, sampleIn)
	f.Add([]byte{})
	f.Add(words(0, 1, 2, 20)) // the dn-bounds regression shape
	for _, c := range invalidInputPayloads {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkChunkPayload(t, false, payload)
	})
}

// FuzzDecodeOrder is the order-record counterpart of FuzzDecodeInput.
func FuzzDecodeOrder(f *testing.F) {
	_, realOrd := payloads(realLog(f))
	_, sampleOrd := payloads(sampleLog())
	seedVariants(f, realOrd)
	seedVariants(f, sampleOrd)
	f.Add([]byte{})
	for _, c := range invalidOrderPayloads {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkChunkPayload(t, true, payload)
	})
}

// FuzzReadLog drives the chunked container format: corrupt streams must
// error (CRC, lengths, framing), Stat must accept exactly what ReadLog
// accepts and count the same records, and accepted streams must
// round-trip.
func FuzzReadLog(f *testing.F) {
	var real bytes.Buffer
	if _, err := realLog(f).WriteTo(&real); err != nil {
		f.Fatal(err)
	}
	seedVariants(f, real.Bytes())
	var sample bytes.Buffer
	if _, err := sampleLog().WriteTo(&sample); err != nil {
		f.Fatal(err)
	}
	seedVariants(f, sample.Bytes())
	var empty bytes.Buffer
	if _, err := NewLog().WriteTo(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("CHIMLOG2"))
	f.Add([]byte("CHIMLOG1junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadLog(bytes.NewReader(data))
		checkStat(t, data, l, err)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := l.WriteTo(&buf); err != nil {
			t.Fatalf("accepted log failed to re-encode: %v", err)
		}
		l2, err := ReadLog(&buf)
		if err != nil {
			t.Fatalf("re-encoded log failed to decode: %v", err)
		}
		if !logsEqual(l, l2) {
			t.Fatalf("chunked log round-trip mismatch")
		}
	})
}
