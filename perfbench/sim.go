package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/oskit"
	"repro/internal/relay"
)

// rng is splitmix64: a fixed stream, so a seed names the same inputs on
// every Go version.
type rng struct{ state uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{state: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ 0x5eedbe4c}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// permutation returns a seeded shuffle of 0..n-1 for one stream.
func permutation(n int, seed, stream uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r := newRNG(seed, stream)
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// countWriter counts the bytes of a recording without keeping them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// simResult is one program's simulated cost under an instrumentation.
type simResult struct {
	recordX, replayX float64
	logBytes         int64
}

// simulate runs an analyzed program natively, then records and replays
// its instrumentation of rep with the "all" options, the way a chimerad
// record job does (seeded world, schedule seed = world seed). The
// overheads are simulated makespans, so the result is deterministic.
func simulate(prog *core.Program, rep *relay.Report, seed uint64) (simResult, error) {
	ip, err := prog.InstrumentWith(rep, nil, instrument.AllOptions())
	if err != nil {
		return simResult{}, err
	}
	native := prog.RunNative(core.RunConfig{World: oskit.NewWorld(seed), Seed: seed})
	if native.Err != nil {
		return simResult{}, fmt.Errorf("%s native: %w", prog.Name, native.Err)
	}
	var cw countWriter
	rec, log, _ := ip.RecordTo(core.RunConfig{World: oskit.NewWorld(seed), Seed: seed}, &cw)
	if rec.Err != nil {
		return simResult{}, fmt.Errorf("%s record: %w", prog.Name, rec.Err)
	}
	re, err := ip.Replay(log, core.RunConfig{World: oskit.NewWorld(seed), Seed: seed + 1})
	if err != nil {
		return simResult{}, fmt.Errorf("%s replay: %w", prog.Name, err)
	}
	if re.Hash64() != rec.Hash64() {
		return simResult{}, fmt.Errorf("%s replay does not bit-match its recording", prog.Name)
	}
	return simResult{
		recordX:  float64(rec.Makespan) / float64(native.Makespan),
		replayX:  float64(re.Makespan) / float64(native.Makespan),
		logBytes: cw.n,
	}, nil
}
