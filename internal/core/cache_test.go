package core

import (
	"sync"
	"testing"
)

const cacheSrc = `
int gv;
int m;
void worker(int x) { lock(&m); gv = gv + x; unlock(&m); }
int main(void) {
    int t = spawn(worker, 1);
    gv = 7;
    join(t);
    return gv;
}
`

// Concurrent loads of one program must share a single artifact
// (single-flight), and distinct programs must not collide.
func TestCacheSharesOneArtifact(t *testing.T) {
	c := NewCache(nil)
	const callers = 16
	progs := make([]*Program, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.Load("cached", cacheSrc, 2, nil)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("caller %d got a different artifact", i)
		}
	}
	hits, partial, misses := c.Stats()
	if misses != 1 || partial != 0 || hits != callers-1 {
		t.Errorf("stats = %d hits / %d partial / %d misses, want %d / 0 / 1",
			hits, partial, misses, callers-1)
	}

	other, err := c.Load("other", cacheSrc+"\n", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other == progs[0] {
		t.Error("distinct (name, source) shared an artifact")
	}
}

// The refined report is memoized per program and identical for every
// caller.
func TestRefinedRacesMemoized(t *testing.T) {
	c := NewCache(nil)
	p, err := c.Load("cached", cacheSrc, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	reps := make([]interface{}, 8)
	for i := range reps {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i] = p.RefinedRaces()
		}()
	}
	wg.Wait()
	for i := 1; i < len(reps); i++ {
		if reps[i] != reps[0] {
			t.Fatalf("caller %d got a different refined report", i)
		}
	}
}

// reload must produce a runnable program without the analysis stages.
func TestReload(t *testing.T) {
	p, err := reload("exec", cacheSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.PTA != nil || p.CG != nil || p.Races != nil {
		t.Error("execution-only load ran analysis stages")
	}
	r := p.RunNative(RunConfig{Seed: 1})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
}
