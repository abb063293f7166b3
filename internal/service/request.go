package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
)

// Request is racecheck's flag vocabulary as a value: everything one
// invocation needs to produce its verdict. The CLI builds one from its
// parsed flags and runs it in process; the client mode ships it to a
// chimerad server, which executes it through the identical RunRequest
// path — that shared path is the byte-identity guarantee.
//
// Paths in CertOut/Instrumented/TracePath/MetricsPath/BatchDir refer to
// the local filesystem and are rejected in remote requests (see
// ValidateRemote).
type Request struct {
	Verbose      bool   `json:"verbose,omitempty"`
	ShowCFG      bool   `json:"cfg,omitempty"`
	MHP          bool   `json:"mhp,omitempty"`
	Precision    bool   `json:"precision,omitempty"`
	Pairs        bool   `json:"pairs,omitempty"`
	Parallel     int    `json:"parallel,omitempty"`
	Certify      bool   `json:"certify,omitempty"`
	Config       string `json:"config,omitempty"`
	CertOut      string `json:"certout,omitempty"`
	Instrumented string `json:"instrumented,omitempty"`
	Bench        string `json:"bench,omitempty"`
	Dynamic      bool   `json:"dynamic,omitempty"`
	Checker      string `json:"checker,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	TracePath    string `json:"trace,omitempty"`
	MetricsPath  string `json:"metrics,omitempty"`
	Incremental  bool   `json:"incremental,omitempty"`
	BatchDir     string `json:"batch,omitempty"`
	SummaryStats bool   `json:"summary_stats,omitempty"`
	Gen          string `json:"gen,omitempty"`

	// TraceID is the request's trace identity (racecheck -trace-id, or
	// any client-chosen string). It names this submission in the
	// server's span tree, structured logs, and /debug/traces ring; the
	// server mints one when it is empty. It is deliberately EXCLUDED
	// from SpecHash: trace identity is per-request, work identity is
	// per-spec, and folding it in would break hash-routed shard
	// affinity and warm-cache dedup for identical work.
	TraceID string `json:"trace_id,omitempty"`

	// Args are the positional arguments (at most one: the source path).
	Args []string `json:"args,omitempty"`

	// Source carries the program text inline when HasSource is set; the
	// client mode reads the file so the server never touches client
	// paths. Args[0] remains the display path, keeping output identical
	// to the offline run on the same command line.
	Source    string `json:"source,omitempty"`
	HasSource bool   `json:"has_source,omitempty"`

	// Usage, when non-nil, prints the CLI usage text on argument errors
	// (the CLI wires its FlagSet's Usage here). Not serialized.
	Usage func() `json:"-"`

	// Tracer, when non-nil, records pipeline-stage spans (parse,
	// typecheck, analyze, refinement, certify, …) for this run. The job
	// engine wires the job's per-request tracer here; the offline CLI
	// leaves it nil, which is the zero-cost disabled tracer. Not
	// serialized and not part of SpecHash.
	Tracer *obs.Tracer `json:"-"`
}

// defaultConfig is -config's default.
const defaultConfig = "all"

// NewRequest returns a Request with racecheck's flag defaults.
func NewRequest() *Request {
	return &Request{Parallel: 1, Config: defaultConfig, Checker: "epoch", Seed: 1}
}

// config is the instrumentation configuration -config, -mhp and
// -precision name together.
func (req *Request) config() core.Config {
	return core.Config{Base: req.Config, MHP: req.MHP, Precision: req.Precision}
}

// unused names on errOut the first of -mhp, -precision and a non-default
// -config that req sets although its mode never reads it, with where it
// has no effect, and reports whether there was one, so no flag is dropped
// without a word. Only modes that instrument nothing call it, so -config
// is never read there; mhp and precision say whether the mode reads those.
func (req *Request) unused(errOut io.Writer, mhp, precision bool, where string) bool {
	var flag string
	switch {
	case req.MHP && !mhp:
		flag = "-mhp"
	case req.Precision && !precision:
		flag = "-precision"
	case req.Config != defaultConfig:
		flag = "-config"
	default:
		return false
	}
	fmt.Fprintf(errOut, "racecheck: %s has no effect %s\n", flag, where)
	return true
}

// usage prints the CLI usage when available, or a one-line reminder.
func (req *Request) usage(errOut io.Writer) {
	if req.Usage != nil {
		req.Usage()
		return
	}
	fmt.Fprintln(errOut, "usage: racecheck [flags] [prog.mc]")
}

// readSource returns the program text: the inline source when the
// request carries one, the local file at Args[i] otherwise.
func (req *Request) readSource(i int) ([]byte, error) {
	if req.HasSource {
		return []byte(req.Source), nil
	}
	return os.ReadFile(req.Args[i])
}

// ValidateRemote reports why a request cannot be executed on a remote
// server: modes that read or write the local filesystem beyond the one
// source file (which the client inlines) stay CLI-only.
func (req *Request) ValidateRemote() error {
	switch {
	case req.BatchDir != "":
		return fmt.Errorf("-batch reads a local corpus directory")
	case req.CertOut != "":
		return fmt.Errorf("-certout writes local certificate files")
	case req.Instrumented != "":
		return fmt.Errorf("-instrumented reads a local pre-instrumented file")
	case req.TracePath != "":
		// The -server client never ships this: it strips -trace and
		// renders the job's returned span tree locally (see RemoteRun).
		return fmt.Errorf("-trace writes a local artifact file")
	case req.MetricsPath != "":
		return fmt.Errorf("-metrics writes a local artifact file")
	case req.ShowCFG:
		return fmt.Errorf("-cfg is a local debugging dump")
	}
	return nil
}

// SpecHash is the deterministic identity of the work a request
// describes: SHA-256 over a canonical field-tagged encoding. Two
// requests with equal hashes produce byte-identical verdicts (the
// pipeline is deterministic in all of these inputs), which is what lets
// the engine route equal submissions to one shard and reuse caches.
func (req *Request) SpecHash() string {
	h := sha256.New()
	field := func(tag string, v any) {
		fmt.Fprintf(h, "%s=%v\x00", tag, v)
	}
	field("verbose", req.Verbose)
	field("cfg", req.ShowCFG)
	field("mhp", req.MHP)
	field("precision", req.Precision)
	field("pairs", req.Pairs)
	field("parallel", req.Parallel)
	field("certify", req.Certify)
	field("config", req.Config)
	field("certout", req.CertOut)
	field("instrumented", req.Instrumented)
	field("bench", req.Bench)
	field("dynamic", req.Dynamic)
	field("checker", req.Checker)
	field("seed", req.Seed)
	field("trace", req.TracePath)
	field("metrics", req.MetricsPath)
	field("incremental", req.Incremental)
	field("batch", req.BatchDir)
	field("summary_stats", req.SummaryStats)
	field("gen", req.Gen)
	for _, a := range req.Args {
		field("arg", a)
	}
	field("has_source", req.HasSource)
	field("source", req.Source)
	return hex.EncodeToString(h.Sum(nil))
}
