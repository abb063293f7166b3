package trace

import (
	"strings"
	"testing"

	"repro/internal/vm"
)

// TestCheckersRejectOutOfRangeThreads feeds both checkers events that name
// threads outside [0, MaxThreads): each must be dropped before it touches
// a clock, allocate nothing, leave later in-range events working, and
// surface through Err, which keeps the first rejection.
func TestCheckersRejectOutOfRangeThreads(t *testing.T) {
	spawn := func(child int64) vm.SyncKey { return vm.SyncKey{Class: vm.SyncSpawn, ID: child} }
	lock := vm.SyncKey{Class: vm.SyncWeakLock, ID: 0}
	badBatch := []vm.Event{{Kind: vm.EventWrite, Tid: -1, Addr: 100, Node: 1}}
	bad := []struct {
		name string
		feed func(c RaceChecker)
	}{
		{"access by -1", func(c RaceChecker) { c.Access(-1, 100, true, 1, 0) }},
		{"spawn of -1", func(c RaceChecker) { c.SyncEvent(spawn(-1), vm.EvSpawn, 0, 0) }},
		{"join of -1", func(c RaceChecker) { c.SyncEvent(spawn(-1), vm.EvJoin, 0, 0) }},
		{"spawn of 2^40", func(c RaceChecker) { c.SyncEvent(spawn(1<<40), vm.EvSpawn, 0, 0) }},
		{"join of 2^40", func(c RaceChecker) { c.SyncEvent(spawn(1<<40), vm.EvJoin, 0, 0) }},
		{"release by MaxThreads", func(c RaceChecker) { c.SyncEvent(lock, vm.EvWLRelease, MaxThreads, 0) }},
		{"access by 2^40", func(c RaceChecker) { c.Access(1<<40, 100, false, 1, 0) }},
		{"drained access by -1", func(c RaceChecker) { c.Drain(badBatch) }},
	}
	checkers := map[string]func() (RaceChecker, *hbState){
		"epoch": func() (RaceChecker, *hbState) {
			c := NewChecker(0)
			return c, &c.hb
		},
		"vector": func() (RaceChecker, *hbState) {
			c := NewVectorChecker(0)
			return c, &c.hb
		},
	}
	for name, open := range checkers {
		for _, b := range bad {
			c, hb := open()
			b.feed(c)
			if c.Err() == nil {
				t.Errorf("%s: %s: no error", name, b.name)
			}
			if len(hb.vcs) != 0 {
				t.Errorf("%s: %s: created %d thread clocks", name, b.name, len(hb.vcs))
			}
			if allocs := testing.AllocsPerRun(10, func() { b.feed(c) }); allocs != 0 {
				t.Errorf("%s: %s: a rejected event allocated %v times", name, b.name, allocs)
			}
		}

		// The first rejection is the one reported, and in-range events
		// after it still order and race as usual.
		c, _ := open()
		c.Access(-1, 100, true, 1, 0)
		c.SyncEvent(spawn(1<<40), vm.EvSpawn, 0, 0)
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "thread -1") {
			t.Errorf("%s: Err = %v, want the first rejection (thread -1)", name, err)
		}
		c.SyncEvent(spawn(MaxThreads-1), vm.EvSpawn, 0, 0)
		c.Access(0, 200, true, 2, 0)
		c.Access(MaxThreads-1, 200, true, 3, 0)
		if n := c.RaceCount(); n != 1 {
			t.Errorf("%s: %d races between thread 0 and thread %d, want 1", name, n, MaxThreads-1)
		}
	}
}
