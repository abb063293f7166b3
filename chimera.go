// Package chimera is a from-scratch reproduction of "Chimera: Hybrid
// Program Analysis for Determinism" (Lee, Chen, Flinn, Narayanasamy,
// PLDI 2012): deterministic record/replay for racy multithreaded programs
// on commodity multiprocessors.
//
// Chimera's idea: record/replay is cheap for data-race-free programs — log
// the nondeterministic inputs and the happens-before order of
// synchronization, and the execution is reproducible. So transform an
// arbitrary program into a data-race-free one: run a sound static race
// detector (RELAY) over it, and guard every potential race pair with a
// *weak-lock* whose acquire order is recorded. Because the detector is
// sound but imprecise, most reported races are false; two optimizations —
// profile-driven function-locks shared via clique analysis, and loop-locks
// whose protected address range comes from symbolic bounds analysis — cut
// the instrumentation cost by orders of magnitude without giving up the
// replay guarantee.
//
// The pipeline operates on MiniC, a C-like language with threads, mutexes,
// barriers and condition variables, executing on a simulated multicore VM
// with a deterministic cycle cost model (the stand-in for the paper's
// patched Linux + pthreads testbed; see DESIGN.md for every substitution).
//
// # Quick start
//
//	prog, err := chimera.Load("demo", src)           // parse + RELAY
//	conc := prog.ProfileNonConcurrency(worlds, 6, 1) // paper §4
//	inst, err := prog.Instrument(conc, chimera.AllOptions())
//	rec, log, _ := inst.RecordTo(chimera.RunConfig{World: w, Seed: 1, Table: inst.Table}, nil)
//	rep, err := inst.Replay(log, chimera.RunConfig{World: w2, Seed: 999, Table: inst.Table})
//	// rec.Hash64() == rep.Hash64(): bit-identical replay under a different schedule.
//
// The nine paper benchmarks live in internal/bench; the harness in
// internal/bench/harness regenerates every table and figure of the
// evaluation (see EXPERIMENTS.md and cmd/chimera-bench).
package chimera

import (
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/oskit"
	"repro/internal/profile"
	"repro/internal/relay"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/weaklock"
)

// Program is a fully analyzed MiniC program: parsed, type-checked,
// compiled for the VM, with points-to, call-graph and RELAY race analyses
// attached.
type Program = core.Program

// Instrumented is a Chimera-transformed program plus its weak-lock table.
type Instrumented = core.Instrumented

// RunConfig parameterizes one VM execution.
type RunConfig = core.RunConfig

// Options selects the instrumenter's optimization set (paper Fig. 5
// configurations).
type Options = instrument.Options

// World is the simulated OS environment a program runs against.
type World = oskit.World

// Concurrency is a profile of observed concurrent function pairs.
type Concurrency = profile.Concurrency

// Log is a recording (input log + sync order log).
type Log = replay.Log

// Result is the outcome of one VM run.
type Result = vm.Result

// Race is a dynamic data race found by the happens-before checker.
type Race = trace.Race

// Report is a RELAY race report. Program.RefineMHP returns a copy with
// statically proven non-concurrent pairs pruned (internal/mhp); pass it
// to Program.InstrumentWith to instrument only the surviving pairs.
type Report = relay.Report

// Table is a weak-lock table.
type Table = weaklock.Table

// Load parses, type-checks, compiles, and statically analyzes src.
func Load(name, src string) (*Program, error) { return core.Load(name, src) }

// NewWorld returns an empty simulated environment.
func NewWorld(seed uint64) *World { return oskit.NewWorld(seed) }

// NaiveOptions instruments every race at instruction granularity (the
// paper's 53x "instr" baseline).
func NaiveOptions() Options { return instrument.NaiveOptions() }

// AllOptions enables the profile and symbolic-bounds optimizations (the
// paper's 1.39x "inst+bb+loop+func" configuration).
func AllOptions() Options { return instrument.AllOptions() }

// CheckDynamicRaces runs a program under the vector-clock checker and
// returns the distinct races observed.
func CheckDynamicRaces(p *Program, table *Table, rc RunConfig) ([]Race, *Result) {
	return core.CheckDynamicRaces(p, table, rc)
}
