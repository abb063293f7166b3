package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"
	"time"

	"repro/internal/callgraph"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/instrument"
	"repro/internal/mhp"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/obs"
	"repro/internal/pointsto"
	"repro/internal/relay"
	"repro/internal/scenario"
	"repro/internal/service"
)

// staticSizes are the size classes of the static-verdict corpus: the
// three presets plus both lock-density rails at medium size.
var staticSizes = []string{"small", "medium", "large", "t4,s8,o96,l0", "t4,s8,o96,l100"}

// staticPerStratum is how many distinct programs each family × size
// class contributes to one corpus. The corpus is stratified so its mix
// of sizes and families is the same for every seed; only the programs
// differ.
const staticPerStratum = 20

// staticLabel is the certificate config label of the verdict request.
const staticLabel = "all+mhp+precision"

type program struct {
	name, src string
	seed      uint64 // world and schedule seed for simulated runs
}

// staticCorpus generates the seed's corpus, strata interleaved so every
// prefix mixes families and sizes.
func staticCorpus(seed uint64) ([]program, error) {
	strata := len(scenario.Families) * len(staticSizes)
	r := newRNG(seed, 1)
	corpus := make([]program, 0, strata*staticPerStratum)
	for i := 0; i < strata*staticPerStratum; i++ {
		fam := scenario.Families[i%len(scenario.Families)]
		size := staticSizes[(i/len(scenario.Families))%len(staticSizes)]
		spec, err := scenario.Parse(fmt.Sprintf("%s:%d:%s", fam, r.next()>>1, size))
		if err != nil {
			return nil, err
		}
		src, err := scenario.Generate(spec)
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, program{name: spec.Name() + ".mc", src: src, seed: spec.Seed})
	}
	return corpus, nil
}

// verdictRequest is `racecheck -certify -mhp -precision prog.mc` with the
// source inline.
func verdictRequest(p program) *service.Request {
	req := service.NewRequest()
	req.Certify, req.MHP, req.Precision = true, true, true
	req.Args = []string{p.name}
	req.Source, req.HasSource = p.src, true
	return req
}

var precisionKept = regexp.MustCompile(`precision kept (\d+),`)

// runStatic measures a developer's time to verdict: one operation is one
// service.RunRequest over a distinct generated program, cycling through
// the seed's corpus.
func runStatic(cfg runConfig) (*report, error) {
	setupS, corpus, err := timeSetup(func() ([]program, error) { return staticCorpus(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	verdict := func(p program) (string, bool, time.Duration) {
		var out, errOut bytes.Buffer
		start := time.Now()
		code := service.RunRequest(verdictRequest(p), nil, &out, &errOut)
		d := time.Since(start)
		ok := code == service.ExitOK && bytes.Contains(out.Bytes(), []byte("certificate OK: "))
		if !ok {
			fmt.Printf("%s: exit %d\n%s%s", p.name, code, out.String(), errOut.String())
		}
		return out.String(), ok, d
	}

	rep := &report{metrics: map[string]float64{"setup_s": setupS}}
	if cfg.trace {
		return rep, traceStatic(cfg, rep, corpus, verdict)
	}

	var lat []float64
	var pairs int64
	h := sha256.New()
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		out, ok, d := verdict(corpus[i%len(corpus)])
		rep.attempted++
		if !ok {
			rep.failed++
		}
		lat = append(lat, ms(d))
		if i < len(corpus) {
			h.Write([]byte(out))
			if sm := precisionKept.FindStringSubmatch(out); sm != nil {
				n, _ := strconv.Atoi(sm[1])
				pairs += int64(n)
			}
		}
	}
	elapsed := time.Since(start)
	if rep.attempted < len(corpus) {
		return nil, fmt.Errorf("only %d of %d corpus programs verified in %gs; instrumented_pairs needs a whole pass",
			rep.attempted, len(corpus), cfg.seconds)
	}
	latencyMetrics(rep.metrics, lat, len(lat), elapsed)
	rep.metrics["success_rate"] = successRate(rep.attempted, rep.failed)
	rep.metrics["live_heap_p90_mb"] = heap.p90MiB()
	rep.metrics["instrumented_pairs"] = float64(pairs)

	// The verdict's instrumentation, executed: two programs per stratum,
	// recorded and replayed on the simulator after the interval. A
	// precision loss shows here as well as in instrumented_pairs.
	var recX, repX []float64
	var logBytes int64
	strata := len(scenario.Families) * len(staticSizes)
	for _, p := range corpus[:2*strata] {
		prog, err := core.Load(p.name, p.src)
		if err != nil {
			return nil, err
		}
		s, err := simulate(prog, prog.PrecisionRaces(), p.seed)
		if err != nil {
			return nil, err
		}
		recX = append(recX, s.recordX)
		repX = append(repX, s.replayX)
		logBytes += s.logBytes
		fmt.Fprintf(h, "%s record=%.6f replay=%.6f log=%d\n", p.name, s.recordX, s.replayX, s.logBytes)
	}
	rep.metrics["record_overhead_x"] = geomean(recX)
	rep.metrics["replay_overhead_x"] = geomean(repX)
	rep.metrics["log_bytes"] = float64(logBytes)
	rep.digest = hex.EncodeToString(h.Sum(nil))
	return rep, nil
}

// traceStatic alternates, program by program, an untraced verdict and
// the same verdict through the benchmark's own calls into each static
// layer. Alternating keeps both halves on the same machine speed.
func traceStatic(cfg runConfig, rep *report, corpus []program, verdict func(program) (string, bool, time.Duration)) error {
	t, err := startTraced(cfg, "static-verdict")
	if err != nil {
		return err
	}
	tr := obs.NewTracer()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		p := corpus[i%len(corpus)]
		_, ok, d := verdict(p)
		t.untraced += d
		opStart := time.Now()
		tok, err := tracedVerdict(tr, p, t.counts)
		t.traced += time.Since(opStart)
		t.ops++
		rep.attempted += 2
		if !ok {
			rep.failed++
		}
		if err != nil || !tok {
			rep.failed++
			fmt.Printf("traced %s failed: ok=%v err=%v\n", p.name, tok, err)
		}
	}
	t.roots = tr.Nodes()
	return t.finish(cfg, "static-verdict", rep.metrics, nil)
}

// tracedVerdict is the verdict path as public calls, one span per layer.
func tracedVerdict(tr *obs.Tracer, p program, counts map[string]float64) (bool, error) {
	root := tr.Start("verdict").SetStr("program", p.name)
	defer root.End()

	sp := tr.Start("lex-parse")
	file, err := parser.Parse(p.name, p.src)
	sp.End()
	if err != nil {
		return false, err
	}
	sp = tr.Start("typecheck")
	info, err := types.Check(file)
	sp.End()
	if err != nil {
		return false, err
	}
	sp = tr.Start("points-to")
	pta := pointsto.Analyze(info)
	sp.End()
	sp = tr.Start("callgraph")
	cg := callgraph.Build(info, pta)
	sp.End()
	sp = tr.Start("relay")
	races := relay.AnalyzeParallel(info, pta, cg, 1)
	sp.End()
	sp = tr.Start("mhp-refine")
	refined := mhp.Refine(races)
	sp.End()
	sp = tr.Start("precision-refine")
	precise := escape.Refine(refined)
	sp.End()
	sp = tr.Start("instrument")
	inst, err := instrument.Instrument(precise, nil, instrument.AllOptions())
	sp.End()
	if err != nil {
		return false, err
	}
	sp = tr.Start("certify")
	cert, err := certify.Certify(precise, inst.Source, p.name, staticLabel)
	sp.End()
	if err != nil {
		return false, err
	}

	counts["relay.pairs"] += float64(len(races.Pairs))
	counts["mhp-refine.pruned"] += float64(len(refined.Pruned))
	counts["precision-refine.discharged"] += float64(len(precise.Pruned) - len(refined.Pruned))
	counts["instrument.weak_locks"] += float64(inst.Table.Len())
	return cert.OK, nil
}
