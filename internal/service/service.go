// Package service is the job-oriented engine behind Chimera-as-a-service:
// the hybrid pipeline (static race analysis → weak-lock instrumentation →
// record/replay → verification), lifted out of the one-shot CLI entry
// points into a long-running, sharded, multi-tenant server.
//
// The package has three layers:
//
//   - The request layer (Request, RunRequest): racecheck's entire
//     verdict-producing pipeline, refactored out of cmd/racecheck. The
//     CLI parses flags into a Request and calls RunRequest in process;
//     the server executes the very same RunRequest against a submitted
//     Request. Every byte a verdict prints therefore comes from one code
//     path, which is what makes the service's differential guarantee —
//     verdicts over the wire are byte-identical to the offline CLI —
//     hold by construction rather than by testing alone (it is still
//     pinned by tests and a CI gate).
//
//   - The job layer (Job, Engine): a deterministic-spec-hashed job
//     (analyze | record | replay-verify | gen-pipeline) scheduled on a
//     sharded worker pool (internal/pool, the generalization of RELAY's
//     SCC-wave pool). Jobs are routed by spec hash, so identical
//     re-submissions serialize on one shard and hit the caches warm.
//     Tenants share one summary.Store through tenant-prefixed views
//     (summary.DeriveKey) and get their own core.Cache, so cross-tenant
//     key collisions are impossible while within-tenant resubmissions
//     reuse every artifact; hit/partial/miss ratios are accounted per
//     tenant. Record jobs stream CHIMLOG2 to a disk spool as records
//     commit (the recording they return is the same compressed bytes);
//     replay-verify jobs replay straight from the spool through
//     replay.NewStreamReplayer, so a replay never holds a whole log in
//     memory.
//
//   - The transport layer (Server, Client): a small HTTP API
//     (cmd/chimerad) for submitting jobs, polling or long-polling
//     results, streaming logs in and out, and scraping /metrics; and the
//     racecheck -server client mode that proxies the existing flag
//     vocabulary through it.
package service

// Process exit codes shared by racecheck (offline and -server client
// mode), the chimerad job engine, and scripts that drive them. These
// used to be scattered magic numbers across cmd/racecheck; the table is
// documented in the README.
const (
	// ExitOK: success — the verdict is clean (no usage error, pipeline
	// ran, certificates clean where requested).
	ExitOK = 0
	// ExitFailure: the pipeline ran and failed — analysis error, failed
	// certificate, replay divergence, checker disagreement, or an I/O
	// error on an input file.
	ExitFailure = 1
	// ExitUsage: flag or argument errors — the pipeline never ran.
	ExitUsage = 2
	// ExitArtifact: a requested output artifact (-trace/-metrics) could
	// not be created or written; distinct from ExitFailure so scripts can
	// tell "could not write the artifacts" from "the pipeline failed".
	ExitArtifact = 3
	// ExitCorpus: the -batch corpus directory is missing, not a
	// directory, or holds no *.mc files; distinct from per-file analysis
	// failures (ExitFailure) and usage errors (ExitUsage).
	ExitCorpus = 4
)
