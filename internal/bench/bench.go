// Package bench defines the nine benchmark programs of the paper's
// evaluation (Table 1) rewritten in MiniC, with their profile and
// evaluation environments:
//
//	desktop:    aget, pfscan, pbzip2
//	server:     knot, apache
//	scientific: ocean, water, fft, radix   (SPLASH-2)
//
// Each rewrite preserves the sharing and synchronization structure that
// drives the paper's results: aget's segmented downloads and benign
// progress races, pfscan's queue hand-off and init/report phases, pbzip2's
// block pipeline, knot/apache's worker pools with racy hit counters and
// the memset-style hot loop, ocean's barrier-phased stencil, water's
// barrier-separated interf/bndry phases, fft's cross-partition butterflies,
// and radix's per-digit rank histograms (paper Fig. 4).
//
// Programs read their workload parameters from simulated file 1, so one
// source (hence one static analysis and one instrumentation) serves both
// the profile and evaluation environments, exactly as in the paper.
package bench

import (
	"strings"

	"repro/internal/oskit"
)

// DefaultWorkers is the evaluation world's worker count in Table 2.
const DefaultWorkers = 4

// Benchmark is one evaluation program and its environments.
type Benchmark struct {
	Name  string
	Class string // "desktop", "server", "scientific"

	// Source is the MiniC program (the mini-libc is appended).
	Source string

	// ProfileWorld builds the world for profile run i (2 workers, small
	// inputs, varied across runs — Table 1 "profile environment").
	ProfileWorld func(run int) *oskit.World

	// EvalWorld builds the world for the measured runs, parameterized by
	// worker count (Table 1 "evaluation environment"; 4 workers in
	// Table 2, {2,4,8} in Figure 8).
	EvalWorld func(workers int) *oskit.World

	// ProfileRuns is the number of profiling runs (paper used 20; the
	// concurrency sets here saturate much earlier, see §7.3).
	ProfileRuns int

	// ProfileEnv and EvalEnv describe the environments for Table 1.
	ProfileEnv, EvalEnv string
}

// FullSource returns the program text with the mini-libc appended (the
// uClibc analog: library source is analyzed together with the program,
// paper §6.2).
func (b *Benchmark) FullSource() string {
	return b.Source + "\n" + LibC
}

// LOC counts non-blank source lines (Table 1's LOC column; the paper
// counts the CIL representation, we count MiniC lines).
func (b *Benchmark) LOC() int {
	n := 0
	for _, line := range strings.Split(b.FullSource(), "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// All returns the benchmarks in the paper's Table 1/2 order.
func All() []*Benchmark {
	return []*Benchmark{
		Aget(), Pfscan(), Pbzip2(),
		Knot(), Apache(),
		Ocean(), Water(), FFT(), Radix(),
	}
}

// ByName returns the named benchmark or nil.
func ByName(name string) *Benchmark {
	for _, b := range All() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// cfgWorld builds a world whose file 1 holds the config words every
// benchmark reads at startup.
func cfgWorld(seed uint64, cfg []int64) *oskit.World {
	w := oskit.NewWorld(seed)
	w.AddFile(1, cfg)
	return w
}

// LibC is the mini standard library analyzed together with programs that
// use it — the role uClibc played in the paper (§6.2). my_memset's hot
// loop is the source of the famous apache false self-race that loop-locks
// with symbolic bounds handle (§7.3).
const LibC = `
void my_memset(int *dst, int value, int len) {
    for (int i = 0; i < len; i++) {
        dst[i] = value;
    }
}

void my_memcpy(int *dst, int *src, int len) {
    for (int i = 0; i < len; i++) {
        dst[i] = src[i];
    }
}

int my_strlen(int *s) {
    int n = 0;
    while (s[n] != 0) {
        n++;
    }
    return n;
}

int my_checksum(int *buf, int len) {
    int h = 2166136261;
    for (int i = 0; i < len; i++) {
        h = h ^ buf[i];
        h = h * 16777619;
        h = h & 1073741823;
    }
    return h;
}
`
