package replay

// Log persistence: recordings are real artifacts — written by one process
// (or machine) and replayed by another, as the paper's debugging and
// fault-tolerance use cases require (§1).
//
// On-disk format (version 2, magic "CHIMLOG2"): a stream of
// length-prefixed, individually gzip-compressed, CRC-checked chunks.
//
//	magic   8 bytes "CHIMLOG2"
//	chunk*  kind byte (1 = input records, 2 = order records)
//	        u32 ulen  uncompressed payload length (bytes, multiple of 8)
//	        u32 clen  compressed payload length
//	        u32 crc   CRC-32 (IEEE) of the compressed payload
//	        clen bytes of gzip-compressed payload
//	end     kind byte 0xFF + three zero u32s; nothing may follow
//
// A chunk payload is a sequence of self-delimiting little-endian int64
// records (a record never spans chunks):
//
//	input record: tid, op, val, dataLen, dataLen words
//	order record: class, id, tid<<8|kind, then for forced weak-lock
//	              preemptions the anchor: instr, sync<<1|blocked
//
// Because every record carries its own tid/key, the writer can stream
// records in commit order as they happen (LogWriter) and the reader can
// decode incrementally (LogCursor) — neither side ever materializes the
// whole log, and each chunk's integrity is checked before any of its
// records are trusted. LogCursor is the only parser of the format: ReadLog,
// the stream replayer and Stat all read through it. Chunks are homogeneous
// by kind, so compressed bytes are attributable to the input vs order
// stream; both sides account for them in one ledger, obs.LogStreams (the
// harness's record_log_bytes / order_log_bytes metrics).

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/minic/types"
	"repro/internal/obs"
	"repro/internal/vm"
)

type wordReader struct {
	r   *bytes.Reader
	err error
}

func (wr *wordReader) next() int64 {
	if wr.err != nil {
		return 0
	}
	var v int64
	if err := binary.Read(wr.r, binary.LittleEndian, &v); err != nil {
		wr.err = err
	}
	return v
}

// remaining returns how many whole words are left to read.
func (wr *wordReader) remaining() int64 { return int64(wr.r.Len() / 8) }

func decodeSyncKey(wr *wordReader) (vm.SyncKey, error) {
	class := wr.next()
	if class < 0 || class > int64(vm.SyncSpawn) {
		return vm.SyncKey{}, fmt.Errorf("replay: corrupt order log (sync class %d)", class)
	}
	return vm.SyncKey{Class: vm.SyncClass(class), ID: wr.next()}, nil
}

func decodeOrderRec(wr *wordReader) (OrderRec, error) {
	packed := wr.next()
	kind := packed & 0xff
	// Only the logged kinds may appear; EvBarrierRelease and above are
	// hook-only events that a well-formed log never contains.
	if kind > int64(vm.EvWLForcedRelease) {
		return OrderRec{}, fmt.Errorf("replay: corrupt order log (event kind %d)", kind)
	}
	// The tid must survive the int32 narrowing unchanged; found by fuzzing:
	// an oversized tid silently truncated (possibly to a negative value)
	// instead of failing.
	tid := packed >> 8
	if tid < 0 || tid > math.MaxInt32 {
		return OrderRec{}, fmt.Errorf("replay: corrupt order log (tid %d out of range)", tid)
	}
	rec := OrderRec{Tid: int32(tid), Kind: vm.SyncEventKind(kind)}
	if rec.Kind == vm.EvWLForcedRelease {
		rec.Anchor.Instr = wr.next()
		s := wr.next()
		rec.Anchor.Sync = s >> 1
		rec.Anchor.Blocked = s&1 == 1
	}
	return rec, nil
}

// ---------------------------------------------------------------------------
// Chunked stream writer

// logMagic identifies the combined on-disk format.
var logMagic = []byte("CHIMLOG2")

// Chunk kinds.
const (
	chunkInput byte = 1
	chunkOrder byte = 2
	chunkEnd   byte = 0xFF
)

// chunkHeaderLen is the size of a chunk header, and of the end marker.
const chunkHeaderLen = 13

// chunkHeader is a decoded chunk header: the kind byte, the uncompressed
// and compressed payload lengths, and the CRC of the compressed payload.
type chunkHeader struct {
	kind            byte
	ulen, clen, crc uint32
}

// bookChunk adds one chunk of kind, with raw uncompressed payload bytes
// and wire bytes on the stream (header plus compressed payload), to its
// stream's counters in s. Records and TotalBytes are booked by the caller.
func bookChunk(s *obs.LogStreams, kind byte, raw, wire int64) {
	if kind == chunkInput {
		s.InputChunks++
		s.InputRawBytes += raw
		s.InputBytes += wire
	} else {
		s.OrderChunks++
		s.OrderRawBytes += raw
		s.OrderBytes += wire
	}
}

// chunkTarget is the uncompressed payload size at which a pending chunk is
// flushed. Small enough that a crash loses little, large enough that gzip
// has context to work with: each chunk restarts the deflate window, so a
// 64 KiB payload lets the second half compress against a full 32 KiB of
// history instead of a cold dictionary. Readers accept any chunk size up
// to maxChunkLen, so this is a writer-side tuning knob, not a format
// parameter.
const chunkTarget = 64 << 10

// maxChunkLen bounds the lengths a reader will believe, so a corrupt
// header cannot demand an absurd allocation before the CRC is checked.
const maxChunkLen = 64 << 20

// LogWriter streams a recording to w in the chunked format as records
// arrive, without building the whole Log in memory first. Records of each
// stream accumulate in a pending buffer that is compressed and flushed as
// one chunk when it reaches chunkTarget (and finally on Close). Attach one
// to a Recorder to capture a run's log on the fly.
type LogWriter struct {
	w       io.Writer
	inBuf   bytes.Buffer // pending uncompressed input records
	ordBuf  bytes.Buffer // pending uncompressed order records
	zbuf    bytes.Buffer
	zw      *gzip.Writer
	stats   obs.LogStreams // the ledger of what was written
	started bool
	closed  bool
	err     error
}

// NewLogWriter returns a streaming writer over w.
func NewLogWriter(w io.Writer) *LogWriter {
	lw := &LogWriter{w: w}
	// Level 2, not BestSpeed: order records are fixed-width words with
	// heavy cross-record redundancy, and the slightly deeper match
	// search pays for itself several times over in wire bytes at nearly
	// BestSpeed cost. Compression runs only on chunk flushes, off the
	// record hot path.
	lw.zw, _ = gzip.NewWriterLevel(&lw.zbuf, 2)
	return lw
}

// Input appends one input record for tid.
func (lw *LogWriter) Input(tid int, rec InputRec) {
	if lw.err != nil || lw.closed {
		return
	}
	lw.stats.InputRecords++
	putWord(&lw.inBuf, int64(tid))
	putWord(&lw.inBuf, int64(rec.Op))
	putWord(&lw.inBuf, rec.Val)
	putWord(&lw.inBuf, int64(len(rec.Data)))
	for _, d := range rec.Data {
		putWord(&lw.inBuf, d)
	}
	if lw.inBuf.Len() >= chunkTarget {
		lw.flush(chunkInput)
	}
}

// Order appends one order record for key.
func (lw *LogWriter) Order(key vm.SyncKey, rec OrderRec) {
	if lw.err != nil || lw.closed {
		return
	}
	lw.stats.OrderRecords++
	putWord(&lw.ordBuf, int64(key.Class))
	putWord(&lw.ordBuf, key.ID)
	putWord(&lw.ordBuf, int64(rec.Tid)<<8|int64(rec.Kind))
	if rec.Kind == vm.EvWLForcedRelease {
		putWord(&lw.ordBuf, rec.Anchor.Instr)
		s := rec.Anchor.Sync << 1
		if rec.Anchor.Blocked {
			s |= 1
		}
		putWord(&lw.ordBuf, s)
	}
	if lw.ordBuf.Len() >= chunkTarget {
		lw.flush(chunkOrder)
	}
}

// Close flushes pending chunks and writes the end marker. The writer is
// unusable afterwards.
func (lw *LogWriter) Close() error {
	if lw.closed {
		return lw.err
	}
	lw.start()
	lw.flush(chunkInput)
	lw.flush(chunkOrder)
	if lw.err == nil {
		var hdr [chunkHeaderLen]byte
		hdr[0] = chunkEnd
		lw.write(hdr[:])
	}
	lw.closed = true
	return lw.err
}

// InputBytesWritten returns the compressed bytes (payload + chunk headers)
// written so far for the input stream.
func (lw *LogWriter) InputBytesWritten() int64 { return lw.stats.InputBytes }

// OrderBytesWritten returns the compressed bytes written so far for the
// order stream.
func (lw *LogWriter) OrderBytesWritten() int64 { return lw.stats.OrderBytes }

// Stats returns the ledger of what was written so far: per-stream record
// and chunk counts, raw payload bytes and wire bytes, and in TotalBytes
// every byte the underlying writer took. It is complete only after Close,
// which flushes the pending chunks and writes the end marker.
func (lw *LogWriter) Stats() obs.LogStreams { return lw.stats }

// Err returns the first write error, if any.
func (lw *LogWriter) Err() error { return lw.err }

func (lw *LogWriter) start() {
	if lw.started || lw.err != nil {
		return
	}
	lw.started = true
	lw.write(logMagic)
}

// write passes p to the underlying writer and books the bytes it took.
func (lw *LogWriter) write(p []byte) bool {
	n, err := lw.w.Write(p)
	lw.stats.TotalBytes += int64(n)
	if err != nil {
		lw.err = err
	}
	return err == nil
}

// flush compresses and emits the pending buffer of the given kind, if any.
func (lw *LogWriter) flush(kind byte) {
	buf := &lw.inBuf
	if kind == chunkOrder {
		buf = &lw.ordBuf
	}
	if lw.err != nil || buf.Len() == 0 {
		return
	}
	lw.start()
	lw.zbuf.Reset()
	lw.zw.Reset(&lw.zbuf)
	if _, err := lw.zw.Write(buf.Bytes()); err != nil {
		lw.err = err
		return
	}
	if err := lw.zw.Close(); err != nil {
		lw.err = err
		return
	}
	var hdr [chunkHeaderLen]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(buf.Len()))
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(lw.zbuf.Len()))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(lw.zbuf.Bytes()))
	if !lw.write(hdr[:]) || !lw.write(lw.zbuf.Bytes()) {
		return
	}
	bookChunk(&lw.stats, kind, int64(buf.Len()), int64(len(hdr)+lw.zbuf.Len()))
	buf.Reset()
}

func putWord(buf *bytes.Buffer, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	buf.Write(b[:])
}

// ---------------------------------------------------------------------------
// Chunked stream reader

// StreamRecord is one decoded record from a log stream: either an input
// record for a thread or an order record for a sync key.
type StreamRecord struct {
	IsInput bool
	Tid     int      // input records: the thread
	Input   InputRec // input records: the payload
	Key     vm.SyncKey
	Order   OrderRec
}

// LogCursor incrementally decodes a chunked log from r: one chunk is
// buffered (and CRC-verified) at a time, and Next yields records until the
// end marker. It is the only CHIMLOG2 parser: ReadLog, NewStreamReplayer
// and Stat all read through it.
type LogCursor struct {
	r       io.Reader
	started bool
	done    bool
	err     error
	hdr     chunkHeader // the current chunk's header
	words   *wordReader // current chunk payload
}

// NewLogCursor returns a cursor over a stream written by LogWriter (or
// Log.WriteTo).
func NewLogCursor(r io.Reader) *LogCursor {
	return &LogCursor{r: r}
}

// Next returns the next record, or io.EOF after the end marker. Any other
// error means the stream is corrupt; the cursor is then stuck on that
// error.
func (c *LogCursor) Next() (StreamRecord, error) {
	for {
		if c.err != nil {
			return StreamRecord{}, c.err
		}
		if c.words != nil && c.words.r.Len() > 0 {
			return c.decodeRecord()
		}
		if err := c.nextChunk(); err != nil {
			c.err = err
			return StreamRecord{}, err
		}
	}
}

func (c *LogCursor) fail(format string, args ...any) (StreamRecord, error) {
	c.err = fmt.Errorf("replay: "+format, args...)
	return StreamRecord{}, c.err
}

func (c *LogCursor) decodeRecord() (StreamRecord, error) {
	wr := c.words
	switch c.hdr.kind {
	case chunkInput:
		rec := StreamRecord{IsInput: true, Tid: int(wr.next())}
		rec.Input.Op = types.BuiltinOp(wr.next())
		rec.Input.Val = wr.next()
		dn := wr.next()
		if wr.err != nil {
			return c.fail("truncated input record")
		}
		if dn < 0 || dn > wr.remaining() {
			return c.fail("corrupt input record (data length %d, %d words remain)", dn, wr.remaining())
		}
		if dn > 0 {
			rec.Input.Data = make([]int64, dn)
			for k := int64(0); k < dn; k++ {
				rec.Input.Data[k] = wr.next()
			}
		}
		return rec, nil
	case chunkOrder:
		key, err := decodeSyncKey(wr)
		if err != nil {
			c.err = err
			return StreamRecord{}, err
		}
		orec, err := decodeOrderRec(wr)
		if err != nil {
			c.err = err
			return StreamRecord{}, err
		}
		if wr.err != nil {
			return c.fail("truncated order record")
		}
		return StreamRecord{Key: key, Order: orec}, nil
	}
	return c.fail("internal: bad chunk kind %d", c.hdr.kind)
}

// nextChunk reads, verifies, and decompresses the next chunk into c.words.
// At the end marker it checks nothing follows and returns io.EOF.
func (c *LogCursor) nextChunk() error {
	if c.done {
		return io.EOF
	}
	if !c.started {
		magic := make([]byte, len(logMagic))
		if _, err := io.ReadFull(c.r, magic); err != nil || !bytes.Equal(magic, logMagic) {
			return fmt.Errorf("replay: not a chimera log")
		}
		c.started = true
	}
	var hdr [chunkHeaderLen]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return fmt.Errorf("replay: truncated log (chunk header): %w", err)
	}
	kind := hdr[0]
	ulen := binary.LittleEndian.Uint32(hdr[1:5])
	clen := binary.LittleEndian.Uint32(hdr[5:9])
	crc := binary.LittleEndian.Uint32(hdr[9:13])
	if kind == chunkEnd {
		if ulen != 0 || clen != 0 || crc != 0 {
			return fmt.Errorf("replay: corrupt end marker")
		}
		var b [1]byte
		if n, _ := c.r.Read(b[:]); n != 0 {
			return fmt.Errorf("replay: trailing garbage after log end")
		}
		c.done = true
		return io.EOF
	}
	if kind != chunkInput && kind != chunkOrder {
		return fmt.Errorf("replay: unknown chunk kind %d", kind)
	}
	if ulen == 0 || ulen > maxChunkLen || ulen%8 != 0 || clen == 0 || clen > maxChunkLen {
		return fmt.Errorf("replay: corrupt chunk header (ulen=%d clen=%d)", ulen, clen)
	}
	comp := make([]byte, clen)
	if _, err := io.ReadFull(c.r, comp); err != nil {
		return fmt.Errorf("replay: truncated chunk: %w", err)
	}
	if got := crc32.ChecksumIEEE(comp); got != crc {
		return fmt.Errorf("replay: chunk CRC mismatch (got %08x, want %08x)", got, crc)
	}
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		return fmt.Errorf("replay: bad chunk stream: %w", err)
	}
	raw := make([]byte, 0, ulen)
	rbuf := bytes.NewBuffer(raw)
	if _, err := io.Copy(rbuf, io.LimitReader(zr, int64(ulen)+1)); err != nil {
		return fmt.Errorf("replay: bad chunk stream: %w", err)
	}
	if err := zr.Close(); err != nil {
		return fmt.Errorf("replay: bad chunk stream: %w", err)
	}
	if rbuf.Len() != int(ulen) {
		return fmt.Errorf("replay: chunk length mismatch (got %d, want %d)", rbuf.Len(), ulen)
	}
	c.hdr = chunkHeader{kind: kind, ulen: ulen, clen: clen, crc: crc}
	c.words = &wordReader{r: bytes.NewReader(rbuf.Bytes())}
	return nil
}

// ---------------------------------------------------------------------------
// Whole-log convenience paths

// WriteTo writes the whole log to w in the chunked format.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	lw := NewLogWriter(w)
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
	err := lw.Close()
	return lw.Stats().TotalBytes, err
}

// ReadLog parses a log written by WriteTo (or streamed by LogWriter).
func ReadLog(r io.Reader) (*Log, error) {
	l := NewLog()
	cur := NewLogCursor(r)
	for {
		rec, err := cur.Next()
		if err == io.EOF {
			return l, nil
		}
		if err != nil {
			return nil, err
		}
		if rec.IsInput {
			l.Inputs[rec.Tid] = append(l.Inputs[rec.Tid], rec.Input)
		} else {
			l.Orders[rec.Key] = append(l.Orders[rec.Key], rec.Order)
		}
	}
}
