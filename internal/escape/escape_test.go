package escape

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
	"repro/internal/relay"
)

func analyzeFixture(t *testing.T, name string) *relay.Report {
	t.Helper()
	path := filepath.Join("testdata", name)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.Parse(path, string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	info, err := types.Check(f)
	if err != nil {
		t.Fatalf("typecheck %s: %v", name, err)
	}
	pta := pointsto.Analyze(info)
	return relay.AnalyzeParallel(info, pta, callgraph.Build(info, pta), 1)
}

// The precision layer's behavior on each fixture is pinned exactly: the
// positives must discharge precisely the intended pairs with the
// intended reason, and the fail-closed negatives — escape via a struct
// field chain, a lock held on only one path, a "read-only" object
// written under a condvar wakeup — must not lose a single pair.
func TestFixtures(t *testing.T) {
	cases := []struct {
		fixture string
		base    int
		kept    int
		reasons map[string]int
	}{
		// pick() unifies arrays a and b into one Steensgaard class, but
		// their Andersen objects are disjoint: every cross-array pair is
		// discharged as non-shared; the done-flag pair survives.
		{"aliasclass.mc", 7, 3, map[string]int{"escape": 4}},
		// worker's single-assignment local alias of &glock sharpens to
		// G#glock, giving every g pair a common grounded lock.
		{"mustlock.mc", 4, 1, map[string]int{"must-lock": 3}},
		// cfg is written once, provably before the first spawn: its
		// write/read pairs are read-only sharing.
		{"readonly.mc", 3, 1, map[string]int{"read-only": 2}},
		// NEGATIVE: node escapes via gbox.slot — the val race pair must
		// survive. (The slot-pointer field itself is written only before
		// the spawn, so that one pair is sound to discharge.)
		{"fieldchain.mc", 2, 1, map[string]int{"read-only": 1}},
		// NEGATIVE: bump() runs with glock on only one path, so the
		// must-lockset is empty and nothing may be discharged.
		{"onepath.mc", 3, 3, nil},
		// NEGATIVE: data is written after the spawn under a condvar
		// wakeup, so read-only sharing must not fire.
		{"condwrite.mc", 3, 3, nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.fixture, func(t *testing.T) {
			rep := analyzeFixture(t, tc.fixture)
			if len(rep.Pairs) != tc.base {
				t.Fatalf("base report has %d pairs, want %d", len(rep.Pairs), tc.base)
			}
			prec := Refine(rep)
			if len(prec.Pairs) != tc.kept {
				t.Errorf("precision kept %d pairs, want %d", len(prec.Pairs), tc.kept)
			}
			if got, want := len(prec.Pairs)+len(prec.Pruned), len(rep.Pairs); got != want {
				t.Errorf("kept %d + pruned %d != reported %d", len(prec.Pairs), len(prec.Pruned), want)
			}
			byReason := make(map[string]int)
			for _, pp := range prec.Pruned {
				byReason[pp.Reason]++
			}
			for reason, want := range tc.reasons {
				if byReason[reason] != want {
					t.Errorf("pruned %d pair(s) as %q, want %d", byReason[reason], reason, want)
				}
				delete(byReason, reason)
			}
			for reason, n := range byReason {
				t.Errorf("unexpected prune reason %q on %d pair(s)", reason, n)
			}
		})
	}
}

// The genuinely racing pair in the field-chain fixture — worker's
// gbox.slot->val write against main's post-spawn val read — must be
// among the kept pairs, not just "some pair survived".
func TestFieldChainKeepsValRace(t *testing.T) {
	prec := Refine(analyzeFixture(t, "fieldchain.mc"))
	found := false
	for _, p := range prec.Pairs {
		if (p.A.Fn.Name == "worker" && p.A.Write) || (p.B.Fn.Name == "worker" && p.B.Write) {
			found = true
		}
	}
	if !found {
		t.Fatalf("worker's val write is in no kept pair: %v", prec.Render())
	}
}

// Refinement is deterministic: three runs over fresh analyses render
// byte-identical reports (map iteration must never leak into output).
func TestRefineDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 3; i++ {
		prec := Refine(analyzeFixture(t, "aliasclass.mc"))
		got := []byte(prec.Render())
		if first == nil {
			first = got
			continue
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("run %d rendered differently:\n--- got ---\n%s\n--- first ---\n%s", i, got, first)
		}
	}
}

// Refining an already-refined report discharges nothing further: the
// verdicts are a function of the base analysis, so a second pass must
// be a fixpoint (and must carry the first pass's provenance forward).
func TestRefineIdempotent(t *testing.T) {
	once := Refine(analyzeFixture(t, "mustlock.mc"))
	twice := Refine(once)
	if len(twice.Pairs) != len(once.Pairs) {
		t.Errorf("second pass changed kept pairs: %d -> %d", len(once.Pairs), len(twice.Pairs))
	}
	if len(twice.Pruned) != len(once.Pruned) {
		t.Errorf("second pass changed pruned pairs: %d -> %d", len(once.Pruned), len(twice.Pruned))
	}
}
