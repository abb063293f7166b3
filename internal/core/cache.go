package core

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/summary"
)

// Cache is a concurrency-safe, content-addressed store of analysis
// artifacts. The key is the program identity — SHA-256 of (name, source)
// — which covers every stage input: parse, points-to, callgraph, RELAY
// summaries, the MHP refinement memoized on the Program, and the symbolic
// bounds derived from its Info. One Analysis artifact is therefore
// computed once per distinct program and shared read-only across all
// instrumentation configs and harness workers; only the per-config
// instrument → record → replay tail runs again.
//
// A cache built over a per-function summary store (internal/summary)
// gives loads three outcomes instead of two: a whole-program hit returns the shared
// artifact, a whole-program miss runs the incremental pipeline, and that
// fresh computation counts as a *partial hit* when it reused at least one
// stored function summary (and as a miss otherwise). The store persists
// across programs, so a batch of related sources pays the RELAY walk only
// for functions no earlier program already summarized.
//
// Loads of the same key are single-flighted: concurrent callers block on
// one computation instead of racing to duplicate it. The worker count
// does not enter the key because the parallel RELAY schedule is proven
// (by the determinism test layer) to produce byte-identical artifacts.
type Cache struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*cacheEntry

	// store backs every miss-path load (LoadOptions.Store); nil for none.
	store *summary.Store

	hits     atomic.Int64
	partials atomic.Int64
	misses   atomic.Int64
}

type cacheEntry struct {
	once sync.Once
	prog *Program
	err  error
}

// NewCache returns an empty analysis cache whose miss path loads with
// store as the summary store (LoadOptions.Store). A nil store makes every
// whole-program miss a full recomputation; a non-nil one may be shared
// with other caches and outlives any one cache.
func NewCache(store *summary.Store) *Cache {
	return &Cache{entries: make(map[[sha256.Size]byte]*cacheEntry), store: store}
}

// Load returns the analyzed program for (name, src), computing it with
// LoadWith on first use — the RELAY walk over `workers` goroutines, the
// stages traced into tr — and returning the shared artifact on every
// subsequent call. On a hit tr records nothing — the stages never ran;
// the hit shows up in Stats.
func (c *Cache) Load(name, src string, workers int, tr *obs.Tracer) (*Program, error) {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(src))
	var key [sha256.Size]byte
	h.Sum(key[:0])

	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	fresh := false
	e.once.Do(func() {
		fresh = true
		e.prog, e.err = LoadWith(name, src, LoadOptions{Workers: workers, Store: c.store, Tracer: tr})
	})
	switch {
	case !fresh:
		c.hits.Add(1)
	case e.prog != nil && e.prog.Incremental != nil && e.prog.Incremental.ReusedFuncs > 0:
		c.partials.Add(1)
	default:
		c.misses.Add(1)
	}
	return e.prog, e.err
}

// Stats reports whole-program hits, partial hits (fresh loads that
// reused stored function summaries), and full misses so far.
func (c *Cache) Stats() (hits, partial, misses int64) {
	return c.hits.Load(), c.partials.Load(), c.misses.Load()
}

// SummaryStats snapshots the summary store's counters as the obs metrics
// section; nil when the cache has no store.
func (c *Cache) SummaryStats() *obs.SummaryStoreStats {
	if c.store == nil {
		return nil
	}
	st := c.store.Stats()
	return &obs.SummaryStoreStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Puts:      st.Puts,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		MHPHits:   st.MHPHits,
		MHPMisses: st.MHPMisses,
	}
}
