// Command logstat inspects a Chimera record/replay log (the CHIMLOG2
// chunked format replay.LogWriter writes, as in a chimerad record job's
// spool):
// per-stream chunk, record and byte counts, compression ratios, and the
// order-record breakdown by sync class and event kind. Every chunk is
// CRC-verified and fully decoded, so a clean exit also certifies the log
// is well-formed.
//
// Usage:
//
//	logstat [-json] file.clog
//	logstat -json -        # read the stream from stdin, e.g. piped out of
//	                       # a chimerad job: curl .../v1/jobs/ID/log | logstat -
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
	"repro/internal/replay"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, in io.Reader, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("logstat", flag.ContinueOnError)
	fs.SetOutput(errOut)
	jsonOut := fs.Bool("json", false, "emit the breakdown as JSON")
	chunks := fs.Bool("chunks", false, "also list every chunk (text mode)")
	fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: logstat [-json] [-chunks] file.clog  (\"-\" reads stdin)\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	path := fs.Arg(0)
	var src io.Reader
	if path == "-" {
		src = in
		path = "<stdin>"
	} else {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(errOut, "logstat: %v\n", err)
			return 1
		}
		defer f.Close()
		src = f
	}
	info, err := replay.Stat(src)
	if err != nil {
		fmt.Fprintf(errOut, "logstat: %s: %v\n", path, err)
		return 1
	}
	if *jsonOut {
		enc, err := json.MarshalIndent(jsonInfo(info), "", "  ")
		if err != nil {
			fmt.Fprintf(errOut, "logstat: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "%s\n", enc)
		return 0
	}
	render(out, info, *chunks)
	return 0
}

// jsonReport is the -json shape: the LogInfo ledger split per stream,
// plus derived compressed bytes and ratios, with stable field names (maps
// marshal with sorted keys, so output is deterministic for a given log).
type jsonReport struct {
	TotalBytes   int64            `json:"total_bytes"`
	Input        jsonStream       `json:"input"`
	Order        jsonStream       `json:"order"`
	OrderByClass map[string]int64 `json:"order_by_class"`
	OrderByKind  map[string]int64 `json:"order_by_kind"`
	Chunks       int              `json:"chunks"`
}

type jsonStream struct {
	Chunks          int64   `json:"chunks"`
	Records         int64   `json:"records"`
	RawBytes        int64   `json:"raw_bytes"`
	CompressedBytes int64   `json:"compressed_bytes"`
	WireBytes       int64   `json:"wire_bytes"`
	Ratio           float64 `json:"compression_ratio"`
}

func jsonInfo(info *replay.LogInfo) jsonReport {
	input, order := streams(info.Streams)
	return jsonReport{
		TotalBytes:   info.Streams.TotalBytes,
		Input:        input,
		Order:        order,
		OrderByClass: info.OrderByClass,
		OrderByKind:  info.OrderByKind,
		Chunks:       len(info.Chunks),
	}
}

// streams splits the ledger into its input and order streams. A stream's
// compressed payload bytes are its wire bytes less one 13-byte header per
// chunk; its ratio is raw over wire bytes, zero for an empty stream.
func streams(l obs.LogStreams) (input, order jsonStream) {
	stream := func(chunks, records, raw, wire int64) jsonStream {
		s := jsonStream{Chunks: chunks, Records: records, RawBytes: raw,
			CompressedBytes: wire - 13*chunks, WireBytes: wire}
		if wire != 0 {
			s.Ratio = float64(raw) / float64(wire)
		}
		return s
	}
	return stream(l.InputChunks, l.InputRecords, l.InputRawBytes, l.InputBytes),
		stream(l.OrderChunks, l.OrderRecords, l.OrderRawBytes, l.OrderBytes)
}

func render(out io.Writer, info *replay.LogInfo, listChunks bool) {
	fmt.Fprintf(out, "total         %d bytes (%d chunks + magic + end marker)\n",
		info.Streams.TotalBytes, len(info.Chunks))
	input, order := streams(info.Streams)
	renderStream(out, "input", input)
	renderStream(out, "order", order)
	if len(info.OrderByClass) > 0 {
		fmt.Fprintf(out, "order records by class:\n")
		for _, k := range sortedKeys(info.OrderByClass) {
			fmt.Fprintf(out, "  %-10s %d\n", k, info.OrderByClass[k])
		}
	}
	if len(info.OrderByKind) > 0 {
		fmt.Fprintf(out, "order records by kind:\n")
		for _, k := range sortedKeys(info.OrderByKind) {
			fmt.Fprintf(out, "  %-10s %d\n", k, info.OrderByKind[k])
		}
	}
	if listChunks {
		fmt.Fprintf(out, "chunks:\n")
		for i, c := range info.Chunks {
			fmt.Fprintf(out, "  [%d] %-5s %6d records  %8d raw  %8d compressed  crc %08x\n",
				i, c.Kind, c.Records, c.RawBytes, c.CompressedBytes, c.CRC)
		}
	}
}

func renderStream(out io.Writer, name string, s jsonStream) {
	fmt.Fprintf(out, "%-6s stream  %d records in %d chunks, %d raw -> %d wire bytes (ratio %.2f)\n",
		name, s.Records, s.Chunks, s.RawBytes, s.WireBytes, s.Ratio)
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
