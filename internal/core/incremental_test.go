package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/callgraph"
	"repro/internal/instrument"
	"repro/internal/minic/ast"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
	"repro/internal/profile"
	"repro/internal/summary"
)

// The load-bearing guarantee of the incremental path: for any edit, a
// store-backed analysis of the edited program must be byte-identical —
// race report, MHP-refined report, instrumented source — to a fresh
// whole-program analysis, and must recompute exactly the dirty cone.

// editScenario is one scripted edit: old/new applied to the benchmark
// program text, old2/new2 (optional) applied to the LibC portion.
type editScenario struct {
	name       string
	prog       [2]string // replace prog[0] with prog[1] in the program text
	libc       [2]string // replace libc[0] with libc[1] in the LibC text
	wholeWords bool
}

func (e editScenario) apply(t *testing.T, b *bench.Benchmark) string {
	t.Helper()
	prog, libc := b.Source, bench.LibC
	if e.prog[0] != "" {
		if !strings.Contains(prog, e.prog[0]) {
			t.Fatalf("%s: edit anchor %q not in %s", e.name, e.prog[0], b.Name)
		}
		prog = strings.ReplaceAll(prog, e.prog[0], e.prog[1])
	}
	if e.libc[0] != "" {
		if !strings.Contains(libc, e.libc[0]) {
			t.Fatalf("%s: edit anchor %q not in LibC", e.name, e.libc[0])
		}
		libc = strings.ReplaceAll(libc, e.libc[0], e.libc[1])
	}
	if e.wholeWords {
		// The rename scenario renames at every occurrence, call sites
		// included, across the whole program (no-op if the program never
		// calls the helper).
		prog = strings.ReplaceAll(prog, e.libc[0], e.libc[1])
	}
	return prog + "\n" + libc
}

// scenarios are the issue's four edit classes. LibC edits localize the
// change to one library function so the expected cone is its transitive
// callers; the main edit appends a dead local so only main changes.
var scenarios = []editScenario{
	{
		name: "leaf-edit",
		libc: [2]string{"h = h * 16777619;", "h = h * 16777618;"},
	},
	{
		name: "touch-main",
		prog: [2]string{"int main(void) {", "int main(void) {\n    int __it0; __it0 = 1;"},
	},
	{
		name:       "rename-helper",
		libc:       [2]string{"my_memset", "my_memset_r"},
		wholeWords: true,
	},
	{
		name: "add-lock",
		libc: [2]string{
			"void my_memset(int *dst, int value, int len) {\n    for (int i = 0; i < len; i++) {\n        dst[i] = value;\n    }\n}",
			"int __pr6lk;\nvoid my_memset(int *dst, int value, int len) {\n    for (int i = 0; i < len; i++) {\n        lock(&__pr6lk);\n        dst[i] = value;\n        unlock(&__pr6lk);\n    }\n}",
		},
	},
}

// declPrints maps every function name to its canonical (whitespace- and
// position-independent) printed declaration.
func declPrints(t *testing.T, name, src string) map[string]string {
	t.Helper()
	file, err := parser.Parse(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	info, err := types.Check(file)
	if err != nil {
		t.Fatalf("check %s: %v", name, err)
	}
	out := make(map[string]string, len(info.FuncList))
	for _, fn := range info.FuncList {
		out[fn.Name] = ast.Print(&ast.File{Decls: []ast.Decl{fn.Decl}})
	}
	return out
}

// expectedCone computes, independently of the summary keying, which
// functions an edit must dirty: the functions whose canonical source
// changed (or are new), closed under transitive callers via non-spawn
// call edges and SCC co-membership on the edited program's callgraph.
func expectedCone(t *testing.T, origSrc, editSrc string) map[string]bool {
	t.Helper()
	orig := declPrints(t, "orig", origSrc)

	file, err := parser.Parse("edit", editSrc)
	if err != nil {
		t.Fatalf("parse edited: %v", err)
	}
	info, err := types.Check(file)
	if err != nil {
		t.Fatalf("check edited: %v", err)
	}
	pta := pointsto.Analyze(info)
	cg := callgraph.Build(info, pta)

	cone := make(map[string]bool)
	for _, fn := range info.FuncList {
		if orig[fn.Name] != ast.Print(&ast.File{Decls: []ast.Decl{fn.Decl}}) {
			cone[fn.Name] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, e := range cg.Edges {
			if !e.Spawn && cone[e.Callee.Name] && !cone[e.Caller.Name] {
				cone[e.Caller.Name] = true
				changed = true
			}
		}
		for _, scc := range cg.SCCs {
			dirty := false
			for _, fn := range scc {
				dirty = dirty || cone[fn.Name]
			}
			if dirty {
				for _, fn := range scc {
					if !cone[fn.Name] {
						cone[fn.Name] = true
						changed = true
					}
				}
			}
		}
	}
	return cone
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// renderAll produces the three byte-compared artifacts of a program:
// the unrefined race report, the MHP-refined report, and the
// instrumented source under the full chimera config.
func renderAll(t *testing.T, p *Program) (races, refined, instrumented string) {
	t.Helper()
	rep := p.RefinedRaces()
	ip, err := p.InstrumentWith(rep, profile.NewConcurrency(), instrument.Options{
		FuncLocks: true, LoopLocks: true, BBLocks: true,
	})
	if err != nil {
		t.Fatalf("instrument %s: %v", p.Name, err)
	}
	return p.Races.Render(), rep.Render(), ip.Report.Source
}

// TestIncrementalEditSequences runs the scripted edit scenarios on three
// benchmarks, asserting (a) byte-identical artifacts vs a fresh analysis,
// (b) the recomputed set equals the expected dirty cone exactly, and
// (c) reverting the edit with the same store recomputes nothing.
func TestIncrementalEditSequences(t *testing.T) {
	for _, name := range []string{"pfscan", "knot", "radix"} {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("unknown benchmark %s", name)
		}
		for _, sc := range scenarios {
			t.Run(name+"/"+sc.name, func(t *testing.T) {
				origSrc := b.FullSource()
				editSrc := sc.apply(t, b)
				if editSrc == origSrc {
					t.Fatal("edit had no effect")
				}

				store := summary.NewStore()
				origInc, err := LoadWith(name, origSrc, LoadOptions{Workers: 4, Store: store})
				if err != nil {
					t.Fatalf("prime: %v", err)
				}
				origInc.RefinedRaces() // prime the MHP facts too

				editInc, err := LoadWith(name, editSrc, LoadOptions{Workers: 4, Store: store})
				if err != nil {
					t.Fatalf("incremental: %v", err)
				}
				editFresh, err := Load(name, editSrc)
				if err != nil {
					t.Fatalf("fresh: %v", err)
				}

				ir, irr, ii := renderAll(t, editInc)
				fr, frr, fi := renderAll(t, editFresh)
				if ir != fr {
					t.Errorf("race reports diverge:\nincremental:\n%s\nfresh:\n%s", ir, fr)
				}
				if irr != frr {
					t.Errorf("refined reports diverge:\nincremental:\n%s\nfresh:\n%s", irr, frr)
				}
				if ii != fi {
					t.Errorf("instrumented sources diverge:\nincremental:\n%s\nfresh:\n%s", ii, fi)
				}

				gotDirty := make(map[string]bool, len(editInc.Incremental.Dirty))
				for _, fn := range editInc.Incremental.Dirty {
					gotDirty[fn] = true
				}
				wantDirty := expectedCone(t, origSrc, editSrc)
				if got, want := sortedSet(gotDirty), sortedSet(wantDirty); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("dirty cone mismatch:\n got  %v\n want %v", got, want)
				}
				if editInc.Incremental.ReusedFuncs == 0 {
					t.Error("no summaries reused")
				}

				// Revert: the original program's summaries and MHP facts are
				// still stored, so re-analyzing it must recompute nothing.
				revert, err := LoadWith(name, origSrc, LoadOptions{Workers: 4, Store: store})
				if err != nil {
					t.Fatalf("revert: %v", err)
				}
				if revert.Incremental.RecomputedFuncs != 0 {
					t.Errorf("revert recomputed %d funcs (%v), want 0",
						revert.Incremental.RecomputedFuncs, revert.Incremental.Dirty)
				}
				rr, rrr, ri := renderAll(t, revert)
				or, orr, oi := renderAll(t, origInc)
				if rr != or || rrr != orr || ri != oi {
					t.Error("revert artifacts diverge from the original analysis")
				}
				if !revert.Incremental.MHPFactsReused {
					t.Error("revert did not reuse stored MHP facts")
				}
			})
		}
	}
}

// TestIncrementalEquivalence is the CI gate: on every benchmark, prime a
// store with the original program, apply the leaf edit, and require the
// incremental re-analysis to reuse summaries while producing byte-
// identical artifacts vs a fresh analysis — at several worker counts.
func TestIncrementalEquivalence(t *testing.T) {
	leaf := scenarios[0]
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			origSrc := b.FullSource()
			editSrc := leaf.apply(t, b)

			fresh, err := Load(b.Name, editSrc)
			if err != nil {
				t.Fatalf("fresh: %v", err)
			}
			fr, frr, fi := renderAll(t, fresh)

			for _, workers := range []int{1, 8} {
				store := summary.NewStore()
				if _, err := LoadWith(b.Name, origSrc, LoadOptions{Workers: workers, Store: store}); err != nil {
					t.Fatalf("prime: %v", err)
				}
				inc, err := LoadWith(b.Name, editSrc, LoadOptions{Workers: workers, Store: store})
				if err != nil {
					t.Fatalf("incremental: %v", err)
				}
				ir, irr, ii := renderAll(t, inc)
				if ir != fr || irr != frr || ii != fi {
					t.Errorf("workers=%d: incremental artifacts diverge from fresh", workers)
				}
				st := inc.Incremental
				if st.ReusedFuncs == 0 || st.RecomputedFuncs == 0 ||
					st.ReusedFuncs+st.RecomputedFuncs != st.TotalFuncs {
					t.Errorf("workers=%d: implausible reuse stats %+v", workers, st)
				}
				if st.RecomputedFuncs >= st.TotalFuncs {
					t.Errorf("workers=%d: leaf edit dirtied every function", workers)
				}
			}
		})
	}
}

// TestIncrementalCacheOutcomes pins the three-way Cache classification:
// miss (cold), partial hit (fresh load that reused summaries), hit
// (whole-program repeat) — and the summary-stats surface.
func TestIncrementalCacheOutcomes(t *testing.T) {
	b := bench.ByName("pfscan")
	orig := b.FullSource()
	edit := scenarios[0].apply(t, b)

	store := summary.NewStore()
	c := NewCache(store)

	if _, err := c.Load("pfscan", orig, 2, nil); err != nil {
		t.Fatal(err)
	}
	hits, partial, misses := c.Stats()
	if hits != 0 || partial != 0 || misses != 1 {
		t.Fatalf("cold load: stats = %d/%d/%d, want 0/0/1", hits, partial, misses)
	}

	if _, err := c.Load("pfscan", edit, 2, nil); err != nil {
		t.Fatal(err)
	}
	hits, partial, misses = c.Stats()
	if hits != 0 || partial != 1 || misses != 1 {
		t.Fatalf("edited load: stats = %d/%d/%d, want 0/1/1", hits, partial, misses)
	}

	if _, err := c.Load("pfscan", edit, 2, nil); err != nil {
		t.Fatal(err)
	}
	hits, partial, misses = c.Stats()
	if hits != 1 || partial != 1 || misses != 1 {
		t.Fatalf("repeat load: stats = %d/%d/%d, want 1/1/1", hits, partial, misses)
	}

	ss := c.SummaryStats()
	if ss == nil || ss.Puts == 0 || ss.Hits == 0 || ss.Entries == 0 {
		t.Fatalf("summary stats missing activity: %+v", ss)
	}
	if NewCache(nil).SummaryStats() != nil {
		t.Fatal("store-less cache reported summary stats")
	}
}
