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
// records are trusted. LogCursor is the only parser of the format: the
// replayer and Stat both read through it. Chunks are homogeneous by kind,
// so compressed bytes are attributable to the input vs order stream; both
// sides account for them in one ledger, obs.LogStreams (the harness's
// record_log_bytes / order_log_bytes metrics).

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

// wordReader decodes little-endian words straight from a chunk payload.
type wordReader struct {
	b   []byte
	err error
}

func (wr *wordReader) next() int64 {
	if wr.err != nil {
		return 0
	}
	if len(wr.b) < 8 {
		wr.err = io.ErrUnexpectedEOF
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(wr.b))
	wr.b = wr.b[8:]
	return v
}

// remaining returns how many whole words are left to read.
func (wr *wordReader) remaining() int64 { return int64(len(wr.b) / 8) }

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
// arrive. Records of each stream accumulate in a pending buffer that is
// compressed and flushed as one chunk when it reaches chunkTarget (and
// finally on Close). A Recorder writes its run's log through one.
type LogWriter struct {
	w       io.Writer
	inBuf   bytes.Buffer // pending uncompressed input records
	ordBuf  bytes.Buffer // pending uncompressed order records
	zbuf    bytes.Buffer
	zw      *gzip.Writer
	stats   obs.LogStreams // the ledger of what was written
	counts  orderCounts
	started bool
	closed  bool
	err     error
}

// orderCounts counts order records by sync class and by event kind. Both
// are uint8s, so any value a record carries indexes them.
type orderCounts struct {
	byClass [256]int64
	byKind  [256]int64
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
	lw.counts.byClass[key.Class]++
	lw.counts.byKind[rec.Kind]++
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
// end marker. It is the only CHIMLOG2 parser: NewStreamReplayer and Stat
// both read through it. One decompressor and its payload buffers serve
// every chunk.
type LogCursor struct {
	r       io.Reader
	only    byte // when non-zero, chunks of any other kind are skipped unread
	started bool
	done    bool
	err     error
	hdr     chunkHeader  // the current chunk's header
	words   wordReader   // the current chunk's undecoded payload
	rec     StreamRecord // the record advance decoded last

	comp []byte       // compressed payload
	zr   *gzip.Reader // over comp
	raw  bytes.Buffer // decompressed payload
}

// NewLogCursor returns a cursor over a stream written by LogWriter.
func NewLogCursor(r io.Reader) *LogCursor {
	return &LogCursor{r: r}
}

// Next returns the next record, or io.EOF after the end marker. Any other
// error means the stream is corrupt; the cursor is then stuck on that
// error.
func (c *LogCursor) Next() (StreamRecord, error) {
	if err := c.advance(); err != nil {
		return StreamRecord{}, err
	}
	if c.rec.IsInput {
		return StreamRecord{IsInput: true, Tid: c.rec.Tid, Input: c.rec.Input}, nil
	}
	return StreamRecord{Key: c.rec.Key, Order: c.rec.Order}, nil
}

// advance decodes the next record into c.rec. Of c.rec, only IsInput and
// the fields of its kind are set. Errors are Next's.
func (c *LogCursor) advance() error {
	for c.err == nil {
		if len(c.words.b) > 0 {
			c.err = c.decodeRecord()
			return c.err
		}
		c.err = c.nextChunk()
	}
	return c.err
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("replay: "+format, args...)
}

// decodeRecord decodes the current chunk's next record into c.rec.
func (c *LogCursor) decodeRecord() error {
	wr, rec := &c.words, &c.rec
	switch c.hdr.kind {
	case chunkInput:
		rec.IsInput = true
		rec.Tid = int(wr.next())
		rec.Input.Op = types.BuiltinOp(wr.next())
		rec.Input.Val = wr.next()
		rec.Input.Data = nil
		dn := wr.next()
		if wr.err != nil {
			return corrupt("truncated input record")
		}
		if dn < 0 || dn > wr.remaining() {
			return corrupt("corrupt input record (data length %d, %d words remain)", dn, wr.remaining())
		}
		if dn > 0 {
			rec.Input.Data = make([]int64, dn)
			for k := int64(0); k < dn; k++ {
				rec.Input.Data[k] = wr.next()
			}
		}
		return nil
	case chunkOrder:
		rec.IsInput = false
		key, err := decodeSyncKey(wr)
		if err != nil {
			return err
		}
		orec, err := decodeOrderRec(wr)
		if err != nil {
			return err
		}
		if wr.err != nil {
			return corrupt("truncated order record")
		}
		rec.Key, rec.Order = key, orec
		return nil
	}
	return corrupt("internal: bad chunk kind %d", c.hdr.kind)
}

// nextChunk reads, verifies, and decompresses the next chunk into c.words;
// a chunk of a kind the cursor skips leaves c.words empty. At the end
// marker it checks nothing follows and returns io.EOF.
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
	if c.only != 0 && kind != c.only {
		// Only the replayer's cursors skip, and each reads its own
		// io.SectionReader of the stream.
		if _, err := c.r.(io.Seeker).Seek(int64(clen), io.SeekCurrent); err != nil {
			return fmt.Errorf("replay: truncated chunk: %w", err)
		}
		return nil
	}
	if cap(c.comp) < int(clen) {
		c.comp = make([]byte, clen)
	}
	comp := c.comp[:clen]
	if _, err := io.ReadFull(c.r, comp); err != nil {
		return fmt.Errorf("replay: truncated chunk: %w", err)
	}
	if got := crc32.ChecksumIEEE(comp); got != crc {
		return fmt.Errorf("replay: chunk CRC mismatch (got %08x, want %08x)", got, crc)
	}
	var err error
	if c.zr == nil {
		c.zr, err = gzip.NewReader(bytes.NewReader(comp))
	} else {
		err = c.zr.Reset(bytes.NewReader(comp))
	}
	if err != nil {
		return fmt.Errorf("replay: bad chunk stream: %w", err)
	}
	c.raw.Reset()
	c.raw.Grow(int(ulen) + bytes.MinRead)
	if _, err := c.raw.ReadFrom(io.LimitReader(c.zr, int64(ulen)+1)); err != nil {
		return fmt.Errorf("replay: bad chunk stream: %w", err)
	}
	if err := c.zr.Close(); err != nil {
		return fmt.Errorf("replay: bad chunk stream: %w", err)
	}
	if c.raw.Len() != int(ulen) {
		return fmt.Errorf("replay: chunk length mismatch (got %d, want %d)", c.raw.Len(), ulen)
	}
	c.hdr = chunkHeader{kind: kind, ulen: ulen, clen: clen, crc: crc}
	c.words = wordReader{b: c.raw.Bytes()}
	return nil
}
