// chimera drives the full pipeline on a MiniC source file: analyze, report
// races, instrument, record, and replay.
//
// Usage:
//
//	chimera -src prog.mc -mode races                 # RELAY report
//	chimera -src prog.mc -mode instrument            # print transformed source
//	chimera -src prog.mc -mode record -log run.clog  # record; persist the log
//	chimera -src prog.mc -mode replay -log run.clog  # replay a persisted log
//	chimera -src prog.mc -mode verify                # record + replay + compare
//	chimera -src prog.mc -mode verify -opt naive     # without optimizations
//
// The program runs against a default simulated world (a config file with
// zeros and an empty network); programs needing richer input are better
// driven through the library (see examples/).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/oskit"
	"repro/internal/replay"
	"repro/internal/weaklock"
)

func main() {
	var (
		srcPath = flag.String("src", "", "MiniC source file")
		mode    = flag.String("mode", "verify", "races | instrument | record | replay | verify")
		opt     = flag.String("opt", "all", "naive | func | loop | all")
		seed    = flag.Uint64("seed", 1, "record schedule seed")
		repSeed = flag.Uint64("replay-seed", 424242, "replay schedule seed")
		runs    = flag.Int("profile-runs", 6, "profile runs for non-concurrency")
		logPath = flag.String("log", "", "recording file to write (record) or read (replay)")
	)
	flag.Parse()
	if *srcPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		fatal(err)
	}
	prog, err := core.Load(*srcPath, string(src))
	if err != nil {
		fatal(err)
	}

	switch *mode {
	case "races":
		fmt.Printf("%d potential race pairs (%d racy nodes, %d racy functions)\n",
			len(prog.Races.Pairs), len(prog.Races.RacyNodes), len(prog.Races.RacyFuncs))
		for _, p := range prog.Races.Pairs {
			fmt.Printf("  %s:%s <-> %s:%s  (roots %s/%s)\n",
				p.A.Fn.Name, p.A.Pos, p.B.Fn.Name, p.B.Pos, p.RootA.Name, p.RootB.Name)
		}
		return
	}

	options := optionsFor(*opt)
	world := func() *oskit.World {
		w := oskit.NewWorld(7)
		w.AddFile(1, make([]int64, 8))
		return w
	}
	conc := prog.ProfileNonConcurrency(func(int) *oskit.World { return world() }, *runs, 99)
	ip, err := prog.Instrument(conc, options)
	if err != nil {
		fatal(err)
	}

	switch *mode {
	case "instrument":
		fmt.Println(ip.Prog.Source)
		counts := ip.Report.StaticCounts
		fmt.Fprintf(os.Stderr, "// %d weak-locks; sites: func=%d loop=%d bb=%d instr=%d\n",
			ip.Table.Len(), counts[weaklock.KindFunc], counts[weaklock.KindLoop],
			counts[weaklock.KindBB], counts[weaklock.KindInstr])

	case "record":
		var stream bytes.Buffer
		res, log, lw := ip.RecordTo(core.RunConfig{World: world(), Seed: *seed, Table: ip.Table}, &stream)
		if res.Err != nil {
			fatal(res.Err)
		}
		st := lw.Stats()
		fmt.Printf("exit=%d makespan=%d output=%q\n", res.ExitCode, res.Makespan, res.Output)
		fmt.Printf("logs: %d input records, %d order records (gzip %0.1f + %0.1f KB)\n",
			log.InputCount(), log.OrderCount(), float64(st.InputBytes)/1024, float64(st.OrderBytes)/1024)
		if *logPath != "" {
			if err := os.WriteFile(*logPath, stream.Bytes(), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("recording written to %s\n", *logPath)
		}

	case "replay":
		if *logPath == "" {
			fatal(fmt.Errorf("-mode replay needs -log"))
		}
		f, err := os.Open(*logPath)
		if err != nil {
			fatal(err)
		}
		log, err := replay.ReadLog(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		res, err := ip.Replay(log, core.RunConfig{World: world(), Seed: *repSeed, Table: ip.Table})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed: exit=%d makespan=%d output=%q\n", res.ExitCode, res.Makespan, res.Output)

	case "verify":
		if err := ip.VerifyDeterministicReplay(world, *seed, *repSeed); err != nil {
			fatal(err)
		}
		fmt.Printf("deterministic replay verified (record seed %d, replay seed %d)\n", *seed, *repSeed)

	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func optionsFor(name string) instrument.Options {
	switch name {
	case "naive":
		return instrument.NaiveOptions()
	case "func":
		return instrument.Options{FuncLocks: true}
	case "loop":
		return instrument.Options{LoopLocks: true, LoopBodyThreshold: 14}
	case "all":
		return instrument.AllOptions()
	}
	fatal(fmt.Errorf("unknown -opt %q", name))
	return instrument.Options{}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chimera:", err)
	os.Exit(1)
}
