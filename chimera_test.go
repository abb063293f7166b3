package chimera

// Facade tests: the README's advertised workflow must work exactly as
// documented through the public package surface.

import (
	"testing"
)

const facadeSrc = `
int total;
int m;
void worker(int n) {
    for (int i = 0; i < n; i++) {
        total = total + 1;
    }
    lock(&m);
    total = total * 1;
    unlock(&m);
}
int main(void) {
    int t1 = spawn(worker, 100);
    int t2 = spawn(worker, 100);
    join(t1);
    join(t2);
    print(total);
    return 0;
}
`

func TestFacadeReadmeWorkflow(t *testing.T) {
	prog, err := Load("facade.mc", facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Races.Pairs) == 0 {
		t.Fatal("RELAY should report races")
	}

	conc := prog.ProfileNonConcurrency(func(int) *World { return NewWorld(1) }, 4, 7)
	inst, err := prog.Instrument(conc, AllOptions())
	if err != nil {
		t.Fatal(err)
	}

	rec, log, _ := inst.RecordTo(RunConfig{World: NewWorld(1), Seed: 1, Table: inst.Table}, nil)
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	rep, err := inst.Replay(log, RunConfig{World: NewWorld(1), Seed: 999, Table: inst.Table})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Hash64() != rep.Hash64() {
		t.Fatalf("replay diverged: %q vs %q", rec.Output, rep.Output)
	}

	races, res := CheckDynamicRaces(inst.Prog, inst.Table,
		RunConfig{World: NewWorld(1), Seed: 5, Table: inst.Table})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(races) != 0 {
		t.Fatalf("instrumented program still racy: %v", races[0])
	}
}

func TestFacadeNaiveOptions(t *testing.T) {
	n, a := NaiveOptions(), AllOptions()
	if n.FuncLocks || n.LoopLocks || n.BBLocks {
		t.Error("naive options must disable optimizations")
	}
	if !a.FuncLocks || !a.LoopLocks || !a.BBLocks || a.LoopBodyThreshold == 0 {
		t.Error("all options must enable everything")
	}
}

func TestFacadeLoadErrors(t *testing.T) {
	if _, err := Load("bad.mc", "int main(void) { return x; }"); err == nil {
		t.Error("semantic error not surfaced")
	}
	if _, err := Load("bad.mc", "int main(void) {"); err == nil {
		t.Error("syntax error not surfaced")
	}
}
