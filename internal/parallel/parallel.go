// Package parallel is the repository's deterministic fork/join engine: a
// bounded worker pool whose output is byte-identical to serial execution
// regardless of scheduling. It is the only place outside tests that starts
// goroutines.
//
// The engine owns no randomness of its own. Determinism is a contract with
// the caller: any stochastic state a task needs (an xrand stream, a fault
// stream, a cloned device) must be derived *before* the tasks are handed to
// the pool — typically by splitting one parent stream once per task, in task
// order. Each task then depends only on its own pre-split state, never on
// which goroutine runs it or in what order, and the engine writes every
// result into the slot of its task index. Running with one worker, sixteen
// workers, or under the race detector produces the same bytes.
//
// Error handling is fail-fast and deterministic. Chunks are claimed in
// ascending order, a failure stops further claiming, and every chunk that was
// claimed runs to completion. So when any task fails, every task below the
// lowest failing index has run, and the error returned is that lowest failing
// index's — the same error the serial loop returns, at every worker count.
// Tasks above it may or may not have run; callers that need deterministic
// state on failure discard partial results (as synergy.ParallelSweep does).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: a positive n is used as given,
// anything else selects GOMAXPROCS (one worker per schedulable CPU).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and waits for all of them. It is ForEachChunked with grain 1.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachChunked(n, workers, 1, func(lo, _ int) error { return fn(lo) })
}

// Map runs fn over [0, n) like ForEach and collects the results in task
// order: out[i] is fn's value for index i, wherever and whenever it ran.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEachChunked runs fn over contiguous half-open ranges [lo, hi) that tile
// [0, n), each at most grain indices wide, on at most Workers(workers)
// goroutines, and waits for all of them. grain <= 0 selects an automatic
// grain of about n/(4·workers) (at least 1), which keeps roughly four chunks
// per worker in flight for load balancing while dividing the per-index
// dispatch cost by the grain.
//
// fn must derive everything it needs from the indices it is handed, so every
// chunk decomposition produces the same bytes as the serial loop. With one
// worker (or one chunk) the chunks run in ascending order on the calling
// goroutine. Otherwise the caller works too and hands the remaining workers
// to helper goroutines that park between calls, so a steady stream of calls
// starts no new goroutines. Nested calls cannot deadlock: the caller alone
// can drain every chunk.
func ForEachChunked(n, workers, grain int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	w := min(Workers(workers), n)
	if grain <= 0 {
		grain = max(n/(4*w), 1)
	}
	chunks := (n + grain - 1) / grain
	w = min(w, chunks)
	if w == 1 {
		for lo := 0; lo < n; lo += grain {
			if err := fn(lo, min(lo+grain, n)); err != nil {
				return err
			}
		}
		return nil
	}

	j := &job{fn: fn, n: n, grain: grain, chunks: chunks}
	j.helpers.Add(w - 1)
	for h := 1; h < w; h++ {
		select {
		case idle <- j: // woke a parked helper
		default:
			go helper(j)
		}
	}
	j.run()
	j.helpers.Wait()
	// Parked helpers still point at j: drop fn so they do not keep whatever
	// it captured alive. No helper touches j after Done.
	j.fn = nil
	return j.err
}

// idle is where helper goroutines park between calls. Sends are
// non-blocking, so a job is handed only to a helper that is already waiting.
var idle = make(chan *job)

// helper works on the job it was started with, then parks for the next one.
func helper(j *job) {
	for {
		j.run()
		j.helpers.Done()
		j = <-idle
	}
}

// job is the state one ForEachChunked call shares with its helpers.
type job struct {
	fn               func(lo, hi int) error
	n, grain, chunks int
	next             atomic.Int64 // next unclaimed chunk number
	stop             atomic.Bool  // set by the first failure
	helpers          sync.WaitGroup
	mu               sync.Mutex
	errLo            int // start index of the chunk err came from
	err              error
}

// run claims and runs chunks until none are left or a chunk has failed. The
// stop flag is checked only before claiming, so every claimed chunk runs.
func (j *job) run() {
	for !j.stop.Load() {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		lo := c * j.grain
		if err := j.fn(lo, min(lo+j.grain, j.n)); err != nil {
			j.mu.Lock()
			if j.err == nil || lo < j.errLo {
				j.errLo, j.err = lo, err
			}
			j.mu.Unlock()
			j.stop.Store(true)
			return
		}
	}
}
