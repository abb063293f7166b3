package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/service"
)

// The service-mixed load: a closed loop of serviceClients clients, each
// waiting for its reply before it submits again, against an in-process
// engine with serviceShards shards behind the HTTP server on loopback.
const (
	serviceClients = 2
	serviceShards  = 2
	serviceTenant  = "bench"
	analyzePool    = 100 // distinct analyze programs: repeats hit the tenant cache
	recordPool     = 40  // distinct record programs
	genPool        = 40  // distinct gen-pipeline specs
)

// serviceBlock is one block of a client's job sequence, reshuffled per
// block: 60% analyze, 15% record, 15% replay-verify, 10% gen-pipeline.
// With this mix the median job is an analyze job and the 90th
// percentile an execution job, away from the boundary between the two.
var serviceBlock = func() []service.JobKind {
	var b []service.JobKind
	for _, k := range []struct {
		kind service.JobKind
		n    int
	}{{service.JobAnalyze, 12}, {service.JobRecord, 3}, {service.JobReplayVerify, 3}, {service.JobGenPipeline, 2}} {
		for i := 0; i < k.n; i++ {
			b = append(b, k.kind)
		}
	}
	return b
}()

type serviceInputs struct {
	analyze, record []program
	gen             []string
}

func serviceSources(seed uint64) (*serviceInputs, error) {
	in := &serviceInputs{}
	gen := func(stream uint64, n int, size string) ([]program, error) {
		r := newRNG(seed, stream)
		var out []program
		for i := 0; i < n; i++ {
			fam := scenario.Families[i%len(scenario.Families)]
			spec, err := scenario.Parse(fmt.Sprintf("%s:%d:%s", fam, r.next()>>1|1, size))
			if err != nil {
				return nil, err
			}
			src, err := scenario.Generate(spec)
			if err != nil {
				return nil, err
			}
			out = append(out, program{name: spec.Name(), src: src, seed: spec.Seed})
		}
		return out, nil
	}
	var err error
	if in.analyze, err = gen(2, analyzePool, "medium"); err != nil {
		return nil, err
	}
	if in.record, err = gen(3, recordPool, "medium"); err != nil {
		return nil, err
	}
	r := newRNG(seed, 4)
	for i := 0; i < genPool; i++ {
		in.gen = append(in.gen, fmt.Sprintf("%s:%d:small", scenario.Families[i%len(scenario.Families)], r.next()>>1))
	}
	return in, nil
}

// jobPlan is one planned job: its kind and the pool index of its input.
type jobPlan struct {
	kind  service.JobKind
	input int
}

// clientPlan returns client c's first n jobs. Each block is a seeded
// shuffle of serviceBlock in which no replay-verify comes before the
// client's first record. Inputs rotate through the pools from a
// per-client offset of half a pool.
func clientPlan(seed uint64, c, n int) []jobPlan {
	var plan []jobPlan
	counts := map[service.JobKind]int{}
	pool := map[service.JobKind]int{service.JobAnalyze: analyzePool, service.JobRecord: recordPool, service.JobGenPipeline: genPool}
	for block := 0; len(plan) < n; block++ {
		perm := permutation(len(serviceBlock), seed, uint64(1000*c+block+1))
		kinds := make([]service.JobKind, len(perm))
		for i, p := range perm {
			kinds[i] = serviceBlock[p]
		}
		if block == 0 {
			for i, k := range kinds {
				if k == service.JobRecord {
					break
				}
				if k == service.JobReplayVerify {
					for j := i + 1; j < len(kinds); j++ {
						if kinds[j] == service.JobRecord {
							kinds[i], kinds[j] = kinds[j], kinds[i]
							break
						}
					}
					break
				}
			}
		}
		for _, k := range kinds {
			jp := jobPlan{kind: k}
			if size, ok := pool[k]; ok {
				jp.input = (counts[k] + c*size/2) % size
			}
			counts[k]++
			plan = append(plan, jp)
		}
	}
	return plan[:n]
}

// serviceEnv is a running engine and server with its spool directory.
type serviceEnv struct {
	in     *serviceInputs
	eng    *service.Engine
	srv    *http.Server
	served chan struct{} // closed when Serve returns
	url    string
	spool  string
}

func startService(cfg runConfig) (*serviceEnv, error) {
	in, err := serviceSources(cfg.seed)
	if err != nil {
		return nil, err
	}
	spool, err := os.MkdirTemp(cfg.artifacts, "spool-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(spool)
		return nil, err
	}
	eng := service.NewEngine(service.EngineConfig{Shards: serviceShards, SpoolDir: spool})
	e := &serviceEnv{
		in: in, eng: eng, spool: spool,
		srv:    &http.Server{Handler: service.NewServer(eng)},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	return e, nil
}

// stop shuts the server down, drains the engine, and removes the spools.
func (e *serviceEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	<-e.served
	if !e.eng.Drain(30 * time.Second) {
		err = errors.Join(err, fmt.Errorf("engine did not drain"))
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(e.spool))
}

// jobOutcome is one finished job as its client saw it.
type jobOutcome struct {
	plan    jobPlan
	rtt     time.Duration
	startNS int64 // client-side start, for the trace
	ok      bool
	view    *service.JobView
}

// runClient runs client c's plan in a closed loop until the deadline
// (zero: until the plan is done). Replay-verify jobs verify the client's
// most recent record.
func (e *serviceEnv) runClient(plan []jobPlan, deadline time.Time, wantTrace bool, epoch time.Time) []jobOutcome {
	client := service.NewClient(e.url)
	var out []jobOutcome
	lastRecord := ""
	for _, jp := range plan {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		spec := &service.JobSpec{Kind: jp.kind, Tenant: serviceTenant, WantTrace: wantTrace}
		switch jp.kind {
		case service.JobAnalyze:
			p := e.in.analyze[jp.input]
			spec.Request = verdictRequest(program{name: p.name + ".mc", src: p.src})
		case service.JobRecord:
			p := e.in.record[jp.input]
			spec.Name, spec.Source, spec.Seed = p.name, p.src, p.seed
		case service.JobReplayVerify:
			spec.LogJob = lastRecord
		case service.JobGenPipeline:
			spec.Spec = e.in.gen[jp.input]
		}
		start := time.Now()
		o := jobOutcome{plan: jp, startNS: start.Sub(epoch).Nanoseconds()}
		v, err := client.Submit(spec)
		if err == nil {
			v, err = client.Wait(v.ID)
		}
		o.rtt = time.Since(start)
		if err != nil {
			fmt.Printf("%s job: %v\n", jp.kind, err)
		} else {
			o.view = v
			o.ok = jobOK(v)
			if !o.ok {
				fmt.Printf("%s job %s failed: state=%s error=%q\n", jp.kind, v.ID, v.State, v.Error)
			}
			if jp.kind == service.JobRecord && o.ok {
				lastRecord = v.ID
			}
		}
		out = append(out, o)
	}
	return out
}

// jobOK is the per-job oracle: done with exit 0, and every structured
// verdict the kind carries holds.
func jobOK(v *service.JobView) bool {
	r := v.Result
	if v.State != service.StateDone || r == nil || r.ExitCode != service.ExitOK {
		return false
	}
	for _, b := range []*bool{r.ReplayMatches, r.Certified, r.CheckersAgree} {
		if b != nil && !*b {
			return false
		}
	}
	switch v.Kind {
	case service.JobReplayVerify, service.JobGenPipeline:
		return r.ReplayMatches != nil
	}
	return true
}

// runClients runs both clients concurrently; plans[c] is client c's plan.
func (e *serviceEnv) runClients(plans [][]jobPlan, deadline time.Time, wantTrace bool) ([][]jobOutcome, time.Duration) {
	outs := make([][]jobOutcome, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range plans {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = e.runClient(plans[c], deadline, wantTrace, start)
		}(c)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// servicePlanCap bounds a client's plan; the deadline ends a run long
// before a client reaches it.
const servicePlanCap = 100000

// runService measures one chimerad job per operation, from Client.Submit
// to the job's terminal state.
func runService(cfg runConfig) (*report, error) {
	setupS, env, err := timeSetup(func() (*serviceEnv, error) { return startService(cfg) }, (*serviceEnv).stop)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{"setup_s": setupS}}
	plans := make([][]jobPlan, serviceClients)
	for c := range plans {
		plans[c] = clientPlan(cfg.seed, c, servicePlanCap)
	}

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	heap := startHeapSampler()
	outs, elapsed := env.runClients(plans, time.Now().Add(time.Duration(seconds*float64(time.Second))), false)
	liveHeap := heap.p90MiB()
	if err := env.stop(); err != nil {
		return nil, err
	}
	var lat []float64
	byKind := map[service.JobKind][]float64{}
	for _, co := range outs {
		for _, o := range co {
			rep.attempted++
			if !o.ok {
				rep.failed++
			}
			lat = append(lat, ms(o.rtt))
			byKind[o.plan.kind] = append(byKind[o.plan.kind], ms(o.rtt))
		}
	}
	for _, k := range []service.JobKind{service.JobAnalyze, service.JobRecord, service.JobReplayVerify, service.JobGenPipeline} {
		v := byKind[k]
		fmt.Printf("%-14s jobs %4d  p10 %8.3f ms  p50 %8.3f ms  p90 %8.3f ms\n", k, len(v), percentile(v, 0.1), median(v), percentile(v, 0.9))
	}
	if cfg.trace {
		return rep, traceService(cfg, rep, outs)
	}
	latencyMetrics(rep.metrics, lat, len(lat), elapsed)
	rep.metrics["live_heap_p90_mb"] = liveHeap
	if err := serviceOutputs(env.in, outs, rep); err != nil {
		return nil, err
	}
	rep.metrics["success_rate"] = successRate(rep.attempted, rep.failed)
	return rep, nil
}

// serviceOutputs derives the deterministic metrics offline from the
// seed's pools — the analyze programs' instrumented pairs, and the record
// programs' log bytes and simulated record and replay overheads — and
// holds every job of the run to them: an analyze verdict reporting other
// pairs, or a record job spooling other bytes, fails. The digest covers
// the offline outputs and each client's first block, whose jobs every
// run completes.
func serviceOutputs(in *serviceInputs, outs [][]jobOutcome, rep *report) error {
	h := sha256.New()
	pairs := make([]int64, len(in.analyze))
	for i, p := range in.analyze {
		prog, err := core.Load(p.name+".mc", p.src)
		if err != nil {
			return err
		}
		pairs[i] = int64(len(prog.PrecisionRaces().Pairs))
		fmt.Fprintf(h, "analyze %s pairs=%d\n", p.name, pairs[i])
	}
	logBytes := make([]int64, len(in.record))
	var recX, repX []float64
	for i, p := range in.record {
		prog, err := core.Load(p.name, p.src)
		if err != nil {
			return err
		}
		s, err := simulate(prog, prog.Races, p.seed)
		if err != nil {
			return err
		}
		logBytes[i] = s.logBytes
		recX = append(recX, s.recordX)
		repX = append(repX, s.replayX)
		fmt.Fprintf(h, "record %s record=%.6f replay=%.6f log=%d\n", p.name, s.recordX, s.replayX, s.logBytes)
	}

	for c, co := range outs {
		if len(co) < len(serviceBlock) {
			return fmt.Errorf("client %d finished %d jobs, fewer than one block of %d", c, len(co), len(serviceBlock))
		}
		for j, o := range co {
			if !o.ok {
				continue
			}
			r := o.view.Result
			if j < len(serviceBlock) {
				fmt.Fprintf(h, "%d %s %d %d %s %q\n", c, o.plan.kind, o.plan.input, r.LogBytes, r.OutputHash, r.Stdout)
			}
			var want, got int64
			switch o.plan.kind {
			case service.JobAnalyze:
				want = pairs[o.plan.input]
				if sm := precisionKept.FindStringSubmatch(r.Stdout); sm != nil {
					got, _ = strconv.ParseInt(sm[1], 10, 64)
				} else {
					got = -1
				}
			case service.JobRecord:
				want, got = logBytes[o.plan.input], r.LogBytes
			default:
				continue
			}
			if got != want {
				fmt.Printf("%s job %s: got %d, the same work offline gives %d\n", o.plan.kind, o.view.ID, got, want)
				rep.failed++
			}
		}
	}
	var totalPairs, totalLog int64
	for i := range pairs {
		totalPairs += pairs[i]
	}
	for i := range logBytes {
		totalLog += logBytes[i]
	}
	rep.metrics["instrumented_pairs"] = float64(totalPairs)
	rep.metrics["log_bytes"] = float64(totalLog)
	rep.metrics["record_overhead_x"] = geomean(recX)
	rep.metrics["replay_overhead_x"] = geomean(repX)
	rep.digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// traceService replays each client's untraced job sequence against a
// fresh engine with WantTrace set, and reads every job's span tree.
func traceService(cfg runConfig, rep *report, untraced [][]jobOutcome) error {
	t, err := startTraced(cfg, "service-mixed")
	if err != nil {
		return err
	}
	plans := make([][]jobPlan, len(untraced))
	for c, co := range untraced {
		for _, o := range co {
			plans[c] = append(plans[c], o.plan)
			t.untraced += o.rtt
		}
	}
	env, err := startService(cfg)
	if err != nil {
		return err
	}
	outs, _ := env.runClients(plans, time.Time{}, true)
	metrics := env.eng.Metrics()
	if err := env.stop(); err != nil {
		return err
	}

	var queue, httpOver []float64
	run := map[service.JobKind][]float64{}
	for _, co := range outs {
		for _, o := range co {
			rep.attempted++
			t.ops++
			t.traced += o.rtt
			if !o.ok {
				rep.failed++
			}
			if o.view == nil || o.view.Result == nil || o.view.Result.Trace == nil {
				continue
			}
			req := o.view.Result.Trace
			var qNS, runNS int64
			for _, c := range req.Children {
				switch c.Name {
				case "queue-wait":
					qNS = c.WallNS()
				case "run":
					runNS = c.WallNS()
				}
			}
			obs.Walk([]*obs.SpanNode{req}, func(n *obs.SpanNode) {
				for _, a := range n.Attrs {
					if a.Key != "spool_bytes" {
						continue
					}
					if n.Name == "record" {
						t.counts["spool.write_bytes"] += float64(a.Int)
					} else {
						t.counts["spool.read_bytes"] += float64(a.Int)
					}
				}
			})
			queue = append(queue, float64(qNS)/1e6)
			run[o.plan.kind] = append(run[o.plan.kind], float64(runNS)/1e6)
			httpOver = append(httpOver, float64(o.rtt.Nanoseconds()-qNS-runNS)/1e6)
			t.roots = append(t.roots, clientSpan(o, req))
		}
	}
	if err := t.finish(cfg, "service-mixed", rep.metrics, map[string]string{"parse": "lex-parse"}); err != nil {
		return err
	}
	rep.metrics["queue-wait.p50_ms"] = median(queue)
	rep.metrics["queue-wait.p90_ms"] = percentile(queue, 0.9)
	for kind, v := range run {
		rep.metrics["run."+string(kind)+".p50_ms"] = median(v)
	}
	rep.metrics["http.overhead_p50_ms"] = median(httpOver)
	for _, tm := range metrics.Tenants {
		if tm.Tenant == serviceTenant {
			rep.metrics["cache.hit_ratio"] = tm.CacheHitRatio
			rep.metrics["summary.hit_ratio"] = tm.SummaryHitRatio
		}
	}
	return nil
}

// clientSpan wraps a job's server-side span tree in a client-side "job"
// span covering the round trip. The server tree is moved onto the
// client's clock, starting with the round trip; the client span's self
// time is then the HTTP and client share of the job.
func clientSpan(o jobOutcome, req *obs.SpanNode) *obs.SpanNode {
	shift := o.startNS - req.StartNS
	var move func(n *obs.SpanNode) *obs.SpanNode
	move = func(n *obs.SpanNode) *obs.SpanNode {
		c := *n
		c.StartNS += shift
		c.EndNS += shift
		c.Children = nil
		for _, ch := range n.Children {
			c.Children = append(c.Children, move(ch))
		}
		return &c
	}
	return &obs.SpanNode{
		Name:     "job",
		StartNS:  o.startNS,
		EndNS:    o.startNS + o.rtt.Nanoseconds(),
		Attrs:    obs.AttrMap{{Key: "kind", Str: string(o.plan.kind), IsStr: true}},
		Children: []*obs.SpanNode{move(req)},
	}
}
