package replay

// Log inspection: Stat walks a CHIMLOG2 stream chunk by chunk through the
// replay cursor — so every header, CRC and payload is verified by the one
// parser replay itself trusts — and reports the per-stream ledger and the
// order-record breakdown without materializing the log. It is the engine
// behind cmd/logstat.

import (
	"io"

	"repro/internal/obs"
)

// ChunkInfo describes one chunk of a log stream.
type ChunkInfo struct {
	Kind            string // "input" or "order"
	Records         int64
	RawBytes        int64 // uncompressed payload length (ulen)
	CompressedBytes int64 // compressed payload length (clen), excluding the 13-byte header
	CRC             uint32
}

// LogInfo is the full breakdown of one CHIMLOG2 stream.
type LogInfo struct {
	// Streams is the ledger of the stream as read; for a stream a
	// LogWriter wrote it equals the writer's Stats.
	Streams obs.LogStreams

	// OrderByClass counts order records per sync class name
	// ("mutex", "barrier", "cond", "weaklock", "spawn").
	OrderByClass map[string]int64

	// OrderByKind counts order records per event kind name
	// ("acq", "wlacq", "wlforce", ...).
	OrderByKind map[string]int64

	// Chunks lists every chunk in stream order.
	Chunks []ChunkInfo
}

// Stat reads a chunked log from r and returns its breakdown. Every chunk
// is CRC-verified and decompressed, and every record decoded, so a nil
// error also certifies the stream is well-formed end to end: Stat accepts
// exactly the streams a LogCursor reads to its end, with the same errors.
func Stat(r io.Reader) (*LogInfo, error) {
	c := NewLogCursor(r)
	info := &LogInfo{
		OrderByClass: make(map[string]int64),
		OrderByKind:  make(map[string]int64),
	}
	st := &info.Streams
	for {
		err := c.nextChunk()
		if err == io.EOF {
			st.TotalBytes += int64(len(logMagic)) + chunkHeaderLen
			return info, nil
		}
		if err != nil {
			return nil, err
		}
		h := c.hdr
		ci := ChunkInfo{Kind: "input", RawBytes: int64(h.ulen), CompressedBytes: int64(h.clen), CRC: h.crc}
		if h.kind == chunkOrder {
			ci.Kind = "order"
		}
		for len(c.words.b) > 0 {
			if err := c.decodeRecord(); err != nil {
				return nil, err
			}
			rec := &c.rec
			ci.Records++
			if rec.IsInput {
				st.InputRecords++
				continue
			}
			st.OrderRecords++
			info.OrderByClass[rec.Key.Class.String()]++
			info.OrderByKind[rec.Order.Kind.String()]++
		}
		wire := chunkHeaderLen + ci.CompressedBytes
		bookChunk(st, h.kind, ci.RawBytes, wire)
		st.TotalBytes += wire
		info.Chunks = append(info.Chunks, ci)
	}
}
