// Package pool provides the two worker-pool disciplines the pipeline
// schedules on:
//
//   - RunWave: a bounded fan-out over one wave of indexed tasks with a
//     full barrier at the end and deterministic least-index error
//     selection. This is the SCC-wave schedule of RELAY's summary walk
//     (relay.AnalyzeParallel, relay.AnalyzeIncremental), extracted so
//     any stage with wave-structured dependencies can reuse it; the
//     benchmark harness fans its independent cells out on it as one
//     wave.
//
//   - Sharded: a long-running pool of single-threaded shards with
//     hash-routed FIFO queues and graceful drain. Work routed by a
//     stable key always lands on the same shard, so per-key ordering
//     holds without locks; this is the scheduling core of the
//     Chimera-as-a-service job engine (internal/service).
//
// Both disciplines make the same determinism trade the SCC-wave pool
// pioneered: parallelism is an execution detail that must never leak
// into results. RunWave guarantees the surfaced error is the one the
// sequential walk would hit first; Sharded guarantees per-key FIFO.
package pool

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
)

// RunWave executes do(i) for every index in wave on at most `workers`
// goroutines and blocks until all complete (the wave barrier). If any
// task fails, the error returned is the one with the smallest index —
// exactly the fault a sequential in-order walk would surface first —
// and tasks with larger indices that have not started yet are skipped.
// Tasks already running are never interrupted.
//
// workers <= 1 degenerates to a sequential in-order walk with
// first-error short-circuit, byte-identical in effect to the concurrent
// schedule.
func RunWave(workers int, wave []int, do func(int) error) error {
	if len(wave) == 0 {
		return nil
	}
	if workers <= 1 {
		for _, i := range wave {
			if err := do(i); err != nil {
				return err
			}
		}
		return nil
	}

	// errIdx holds the smallest task index that produced an error
	// (math.MaxInt64 = none). An error cancels all outstanding work with
	// a higher index; lower-index tasks of the same wave still run, so
	// the surfaced error is deterministic.
	errIdx := int64(math.MaxInt64)
	var errMu sync.Mutex
	errs := make(map[int64]error)
	record := func(i int, err error) {
		errMu.Lock()
		errs[int64(i)] = err
		errMu.Unlock()
		for {
			cur := atomic.LoadInt64(&errIdx)
			if int64(i) >= cur || atomic.CompareAndSwapInt64(&errIdx, cur, int64(i)) {
				return
			}
		}
	}

	n := workers
	if n > len(wave) {
		n = len(wave)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if int64(i) > atomic.LoadInt64(&errIdx) {
					continue // cancelled: a lower-index task failed
				}
				if err := do(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	for _, i := range wave {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	if first := atomic.LoadInt64(&errIdx); first != math.MaxInt64 {
		return errs[first]
	}
	return nil
}

// ErrDraining is returned by Sharded.Submit after Drain has begun: the
// pool no longer accepts work.
var ErrDraining = errors.New("pool: draining, not accepting work")

// ErrFull is returned by Sharded.Submit when the routed shard's queue is
// at capacity.
var ErrFull = errors.New("pool: shard queue full")

// Sharded is a pool of single-threaded shards fed by bounded FIFO
// queues. Submit routes a task by key hash, so all tasks sharing a key
// execute in submission order on one shard. It generalizes the SCC-wave
// pool from one-shot barrier scheduling to a long-running service
// discipline: instead of wave barriers, ordering comes from per-shard
// FIFO; instead of run-to-completion, the pool drains on demand.
type Sharded struct {
	shards  []chan func()
	queued  []atomic.Int64 // per-shard tasks waiting in queue
	running []atomic.Int64 // per-shard tasks executing (0 or 1)
	wg      sync.WaitGroup
	drain   atomic.Bool
	submit  sync.RWMutex // held (R) across enqueue so Drain can fence
	pending atomic.Int64
	done    atomic.Int64
}

// NewSharded starts a pool with `shards` single-threaded shards, each
// with a queue of `depth` tasks. shards and depth are clamped to 1.
func NewSharded(shards, depth int) *Sharded {
	if shards < 1 {
		shards = 1
	}
	if depth < 1 {
		depth = 1
	}
	p := &Sharded{
		shards:  make([]chan func(), shards),
		queued:  make([]atomic.Int64, shards),
		running: make([]atomic.Int64, shards),
	}
	for i := range p.shards {
		ch := make(chan func(), depth)
		p.shards[i] = ch
		p.wg.Add(1)
		go func(i int) {
			defer p.wg.Done()
			for task := range ch {
				p.queued[i].Add(-1)
				p.running[i].Add(1)
				task()
				p.running[i].Add(-1)
				p.pending.Add(-1)
				p.done.Add(1)
			}
		}(i)
	}
	return p
}

// Shards returns the shard count.
func (p *Sharded) Shards() int { return len(p.shards) }

// Shard returns the shard index key routes to.
func (p *Sharded) Shard(key uint64) int { return int(key % uint64(len(p.shards))) }

// Submit enqueues task on the shard key routes to. It never blocks:
// a full shard queue returns ErrFull, a draining pool ErrDraining.
func (p *Sharded) Submit(key uint64, task func()) error {
	p.submit.RLock()
	defer p.submit.RUnlock()
	if p.drain.Load() {
		return ErrDraining
	}
	// The queued gauge is bumped before the send: the channel receive
	// orders the worker's decrement after this increment, so the gauge
	// never goes negative.
	idx := p.Shard(key)
	p.queued[idx].Add(1)
	select {
	case p.shards[idx] <- task:
		p.pending.Add(1)
		return nil
	default:
		p.queued[idx].Add(-1)
		return ErrFull
	}
}

// Stats reports tasks currently queued or running, and tasks completed.
func (p *Sharded) Stats() (pending, done int64) {
	return p.pending.Load(), p.done.Load()
}

// ShardStats reports, per shard, the tasks waiting in queue and the
// tasks executing. The two slices are parallel to shard indices. Each
// gauge is individually accurate; a scrape concurrent with task
// hand-off may observe the one-task transition inconsistently between
// the two slices (gauges, not ledgers).
func (p *Sharded) ShardStats() (queued, running []int64) {
	queued = make([]int64, len(p.shards))
	running = make([]int64, len(p.shards))
	for i := range p.shards {
		queued[i] = p.queued[i].Load()
		running[i] = p.running[i].Load()
	}
	return queued, running
}

// Drain stops admission and waits for every queued task to finish, or
// for stop to be closed, whichever comes first. It reports whether the
// pool drained completely. Drain is idempotent; the first call closes
// the queues.
func (p *Sharded) Drain(stop <-chan struct{}) bool {
	if !p.drain.CompareAndSwap(false, true) {
		// Another drainer closed the queues; just wait alongside it.
		return p.wait(stop)
	}
	// Fence: no Submit holds the lock mid-enqueue once we have it.
	p.submit.Lock()
	for _, ch := range p.shards {
		close(ch)
	}
	p.submit.Unlock()
	return p.wait(stop)
}

func (p *Sharded) wait(stop <-chan struct{}) bool {
	finished := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return true
	case <-stop:
		return false
	}
}
