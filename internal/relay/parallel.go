package relay

import (
	"fmt"

	"repro/internal/callgraph"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
	"repro/internal/pool"
)

// The summary walk.
//
// RELAY's bottom-up composition is embarrassingly parallel across the
// callgraph SCC condensation: a summary depends only on the summaries of
// its callee SCCs, so all SCCs of one condensation wave (callgraph.Waves)
// can be analyzed concurrently, with the per-SCC fixpoint iteration kept
// sequential inside its worker. The original RELAY distributed exactly
// this schedule across a cluster (Voung et al., FSE 2007 §5); here it is a
// bounded worker pool.
//
// Determinism: a summary is a pure function of the function body and the
// (completed) callee summaries, and each wave ends with a full barrier, so
// the summaries — and therefore the Report — are byte-identical to the
// sequential walk no matter how workers interleave. The only shared
// mutable state during a wave is each worker's own Summary structs; the
// summaries map itself is fully populated before the first wave starts.

// AnalyzeParallel runs the full RELAY pipeline with summary computation
// distributed over at most `workers` goroutines. workers <= 1 selects the
// sequential post-order walk; any value yields an identical Report.
func AnalyzeParallel(info *types.Info, pta *pointsto.Analysis, cg *callgraph.Graph, workers int) *Report {
	rl := newAnalyzer(info, pta, cg)
	if err := rl.walk(nil, workers); err != nil {
		// No production error sources exist (errors come only from the
		// test-only fault hook), so this is unreachable outside tests.
		panic(fmt.Sprintf("relay: summary walk failed: %v", err))
	}
	return rl.detectRaces()
}

func newAnalyzer(info *types.Info, pta *pointsto.Analysis, cg *callgraph.Graph) *analyzer {
	return &analyzer{
		info:      info,
		pta:       pta,
		cg:        cg,
		summaries: make(map[*types.FuncInfo]*Summary),
	}
}

// walk computes the summaries of the SCCs marked in dirty (nil marks
// every SCC), bottom-up; the summaries of unmarked SCCs must already be
// installed. workers <= 1 is the sequential post-order walk, the
// reference the parallel-equivalence tests compare against. Otherwise
// each condensation wave's marked SCCs run on the shared wave pool
// (internal/pool): pool.RunWave returns only when the wave is complete,
// publishing its summaries, and an error cancels all outstanding work
// with a higher SCC index while lower-index SCCs of the same wave still
// run, so the surfaced error is deterministic: the least-index fault of
// the first faulty wave — exactly the error the sequential walk would hit
// first.
func (rl *analyzer) walk(dirty []bool, workers int) error {
	marked := func(i int) bool { return dirty == nil || dirty[i] }
	// Create every marked summary up front so the map is never written
	// during the concurrent phase: workers mutate only the Summary structs
	// of their own SCC and read completed callee summaries.
	for i, scc := range rl.cg.SCCs {
		if marked(i) {
			for _, fn := range scc {
				rl.summaries[fn] = &Summary{Fn: fn, accessKeys: make(map[string]bool)}
			}
		}
	}
	analyze := func(i int) error {
		if err := rl.analyzeSCC(i); err != nil {
			return fmt.Errorf("scc %d: %w", i, err)
		}
		return nil
	}

	if workers <= 1 {
		for i := range rl.cg.SCCs {
			if marked(i) {
				if err := analyze(i); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, wave := range rl.cg.Waves() {
		var todo []int
		for _, i := range wave {
			if marked(i) {
				todo = append(todo, i)
			}
		}
		if err := pool.RunWave(workers, todo, analyze); err != nil {
			return err // a wave failed: later waves never start
		}
	}
	return nil
}

// analyzeSCC iterates one SCC's summaries to a fixpoint (single-function
// SCCs converge in one pass unless self-recursive).
func (rl *analyzer) analyzeSCC(i int) error {
	if rl.sccFault != nil {
		if err := rl.sccFault(i); err != nil {
			return err
		}
	}
	scc := rl.cg.SCCs[i]
	for iter := 0; iter < 5; iter++ {
		changed := false
		for _, fn := range scc {
			if rl.analyzeFunc(fn) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return nil
}
