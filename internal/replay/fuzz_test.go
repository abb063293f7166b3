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

// realLog records an actual concurrent run with input operations and
// returns its stream, so the fuzz corpora are seeded with genuinely-shaped
// logs rather than only hand-built ones.
func realLog(f *testing.F) []byte {
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
	rec := NewRecorder(w, vm.DefaultCost(), nil)
	r := vm.Run(p, vm.Config{Inputs: rec, Monitor: rec, Seed: 9})
	if r.Err != nil {
		f.Fatal(r.Err)
	}
	log, err := rec.Close()
	if err != nil {
		f.Fatal(err)
	}
	return log.Bytes()
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

// payloads decodes a stream and returns its input and order records as raw
// chunk payloads, in stream order.
func payloads(f *testing.F, data []byte) (in, ord []byte) {
	f.Helper()
	recs, err := decode(data)
	if err != nil {
		f.Fatal(err)
	}
	lw := NewLogWriter(io.Discard)
	for _, r := range recs {
		if r.IsInput {
			lw.Input(r.Tid, r.Input)
		} else {
			lw.Order(r.Key, r.Order)
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

// checkStat requires Stat to accept exactly the stream the cursor
// accepted (recs, err), failing with the same error, and to count the
// records the cursor decoded.
func checkStat(t *testing.T, data []byte, recs []StreamRecord, err error) {
	t.Helper()
	info, serr := Stat(bytes.NewReader(data))
	if (serr == nil) != (err == nil) || (err != nil && serr.Error() != err.Error()) {
		t.Fatalf("cursor error %v, Stat error %v", err, serr)
	}
	if err != nil {
		return
	}
	var in, ord int64
	for _, r := range recs {
		if r.IsInput {
			in++
		} else {
			ord++
		}
	}
	if info.Streams.InputRecords != in || info.Streams.OrderRecords != ord {
		t.Fatalf("Stat counted %d input and %d order records, the cursor decoded %d and %d",
			info.Streams.InputRecords, info.Streams.OrderRecords, in, ord)
	}
}

// checkStream reads data through a LogCursor, Stat and NewStreamReplayer:
// none may panic, all three must agree on whether the stream is accepted,
// and an accepted stream, re-encoded through a LogWriter in stream order,
// must decode to the same records.
func checkStream(t *testing.T, data []byte) {
	t.Helper()
	recs, err := decode(data)
	if _, serr := NewStreamReplayer(bytes.NewReader(data), vm.CostModel{}); (serr == nil) != (err == nil) {
		t.Fatalf("cursor error %v, NewStreamReplayer error %v", err, serr)
	}
	checkStat(t, data, recs, err)
	if err != nil {
		return
	}
	again, err := decode(encode(recs))
	if err != nil {
		t.Fatalf("re-encoded stream failed to decode: %v", err)
	}
	if !sameRecords(recs, again) {
		t.Fatalf("stream round-trip mismatch")
	}
}

// FuzzDecodeInput fuzzes the input record decoder behind the CRC, which
// is what guards uploaded logs: each payload is wrapped in one CRC-valid
// input chunk (chunkStream) and checked by checkStream.
func FuzzDecodeInput(f *testing.F) {
	realIn, _ := payloads(f, realLog(f))
	sampleIn, _ := payloads(f, encode(sampleRecords()))
	seedVariants(f, realIn)
	seedVariants(f, sampleIn)
	f.Add([]byte{})
	f.Add(words(0, 1, 2, 20)) // the dn-bounds regression shape
	for _, c := range invalidInputPayloads {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkStream(t, chunkStream(false, payload))
	})
}

// FuzzDecodeOrder is the order-record counterpart of FuzzDecodeInput.
func FuzzDecodeOrder(f *testing.F) {
	_, realOrd := payloads(f, realLog(f))
	_, sampleOrd := payloads(f, encode(sampleRecords()))
	seedVariants(f, realOrd)
	seedVariants(f, sampleOrd)
	f.Add([]byte{})
	for _, c := range invalidOrderPayloads {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkStream(t, chunkStream(true, payload))
	})
}

// FuzzReadLog drives the whole chunked container format: corrupt streams
// must error (CRC, lengths, framing) alike through the cursor, Stat and
// NewStreamReplayer, and accepted streams must round-trip (checkStream).
func FuzzReadLog(f *testing.F) {
	seedVariants(f, realLog(f))
	seedVariants(f, encode(sampleRecords()))
	f.Add(encode(nil))
	f.Add([]byte("CHIMLOG2"))
	f.Add([]byte("CHIMLOG1junk"))
	f.Fuzz(checkStream)
}
