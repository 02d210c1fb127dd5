package parallel

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsenergy/internal/xrand"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-2); got != Workers(0) {
		t.Errorf("Workers(-2) = %d, want GOMAXPROCS default %d", got, Workers(0))
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		counts := make([]int64, n)
		err := ForEach(n, workers, func(i int) error {
			atomic.AddInt64(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, max int64
	var mu sync.Mutex
	err := ForEach(50, workers, func(i int) error {
		c := atomic.AddInt64(&cur, 1)
		mu.Lock()
		if c > max {
			max = c
		}
		mu.Unlock()
		atomic.AddInt64(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if max > workers {
		t.Errorf("observed %d concurrent tasks, pool bound is %d", max, workers)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		out, err := Map(64, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapMatchesSerialWithPreSplitStreams is the engine's core contract: with
// per-task streams split before the fork, the parallel result set is
// identical to the serial one however the pool schedules it.
func TestMapMatchesSerialWithPreSplitStreams(t *testing.T) {
	run := func(workers int) []uint64 {
		base := xrand.New(99)
		streams := base.SplitN(40)
		out, err := Map(len(streams), workers, func(i int) (uint64, error) {
			var acc uint64
			for k := 0; k < 50; k++ {
				acc ^= streams[i].Uint64()
			}
			return acc, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 8, 32} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d diverged from serial execution", workers)
		}
	}
}

// TestForEachFailFast asserts what fail-fast guarantees on every schedule:
// the lowest failing index's error comes back, every lower index ran, and at
// width 1 nothing after the failure ran.
func TestForEachFailFast(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 4, 8} {
		const n = 1000
		ran := make([]atomic.Bool, n)
		err := ForEach(n, workers, func(i int) error {
			ran[i].Store(true)
			if i == 5 {
				return fmt.Errorf("task %d: %w", i, boom)
			}
			return nil
		})
		if !errors.Is(err, boom) || err.Error() != "task 5: boom" {
			t.Fatalf("workers=%d: err = %v, want task 5's error", workers, err)
		}
		for i := 0; i <= 5; i++ {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: index %d below the failure never ran", workers, i)
			}
		}
		if workers == 1 {
			for i := 6; i < n; i++ {
				if ran[i].Load() {
					t.Fatalf("workers=1: index %d ran after the failure", i)
				}
			}
		}
	}
}

// TestJobStopsClaimingAfterFailure drives one job's claim loop directly, on
// the test goroutine, so the stop flag is exercised without depending on the
// scheduler: the first run stops at the failing task, and a second run — a
// worker arriving after the failure — claims nothing and runs nothing.
func TestJobStopsClaimingAfterFailure(t *testing.T) {
	const n = 1000
	var ran []int
	j := &job{n: n, grain: 1, chunks: n, fn: func(lo, _ int) error {
		ran = append(ran, lo)
		if lo == 5 {
			return fmt.Errorf("task %d", lo)
		}
		return nil
	}}
	j.run()
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("first run ran %v, want %v", ran, want)
	}
	if j.err == nil || j.err.Error() != "task 5" {
		t.Fatalf("err = %v, want task 5's error", j.err)
	}
	j.run()
	if len(ran) != 6 {
		t.Fatalf("second run ran %v after the failure", ran[6:])
	}
	if got := j.next.Load(); got != 6 {
		t.Fatalf("second run claimed up to chunk %d, want no claim past 6", got)
	}
}

// TestForEachLowestErrorWins fails two far-apart indices and requires the
// lower one's error at every width, however the schedule interleaves them.
// On odd repetitions task 3 is slow, so on a parallel schedule task 700
// usually fails first and the lower error must still replace it.
func TestForEachLowestErrorWins(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 100; rep++ {
			err := ForEach(1000, workers, func(i int) error {
				if i == 3 && rep%2 == 1 {
					time.Sleep(100 * time.Microsecond)
				}
				if i == 3 || i == 700 {
					return fmt.Errorf("task %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "task 3" {
				t.Fatalf("workers=%d rep=%d: err = %v, want task 3", workers, rep, err)
			}
		}
	}
}

// TestNestedForEachCompletes runs a fan-out inside every task of another, at
// widths larger than the machine, so the callers must drain the inner work
// themselves whenever no helper is free.
func TestNestedForEachCompletes(t *testing.T) {
	const outer, inner = 16, 64
	var total atomic.Int64
	err := ForEach(outer, 8, func(int) error {
		return ForEach(inner, 8, func(int) error {
			total.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != outer*inner {
		t.Fatalf("ran %d inner tasks, want %d", got, outer*inner)
	}
}

func TestForEachSerialErrorIsFirstIndex(t *testing.T) {
	// With one worker the engine is a plain loop: the error of the first
	// failing index is returned and later tasks never run.
	var ran []int
	err := ForEach(10, 1, func(i int) error {
		ran = append(ran, i)
		if i >= 3 {
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Fatalf("err = %v", err)
	}
	if !reflect.DeepEqual(ran, []int{0, 1, 2, 3}) {
		t.Fatalf("ran %v", ran)
	}
}

func TestForEachChunkedCoversEveryIndexOnce(t *testing.T) {
	const n = 257 // prime: no grain divides it, so the tail chunk is short
	for _, workers := range []int{1, 2, 7, 64} {
		for _, grain := range []int{0, 1, 3, 64, 1000} {
			counts := make([]int64, n)
			err := ForEachChunked(n, workers, grain, func(lo, hi int) error {
				if lo >= hi || lo < 0 || hi > n {
					return fmt.Errorf("bad chunk [%d,%d)", lo, hi)
				}
				if grain > 0 && hi-lo > grain {
					return fmt.Errorf("chunk [%d,%d) exceeds grain %d", lo, hi, grain)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&counts[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d grain=%d: %v", workers, grain, err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d grain=%d: index %d ran %d times", workers, grain, i, c)
				}
			}
		}
	}
}

// TestForEachChunkedMatchesForEach locks the rewiring contract: a body that
// derives its work purely from the indices produces the same bytes through
// ForEachChunked as through ForEach, for every worker count and grain.
func TestForEachChunkedMatchesForEach(t *testing.T) {
	const n = 120
	want := make([]uint64, n)
	if err := ForEach(n, 1, func(i int) error {
		want[i] = xrand.New(uint64(i)).Uint64()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 16} {
		for _, grain := range []int{0, 1, 7, 200} {
			got := make([]uint64, n)
			err := ForEachChunked(n, workers, grain, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					got[i] = xrand.New(uint64(i)).Uint64()
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d grain=%d: %v", workers, grain, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d grain=%d diverged from ForEach", workers, grain)
			}
		}
	}
}

func TestForEachChunkedSerialErrorIsFirstChunk(t *testing.T) {
	// With one worker the chunks run in ascending order: the first failing
	// chunk's error is returned and later chunks never run.
	var ran []int
	err := ForEachChunked(20, 1, 4, func(lo, hi int) error {
		ran = append(ran, lo)
		if lo >= 8 {
			return fmt.Errorf("fail at %d", lo)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 8" {
		t.Fatalf("err = %v", err)
	}
	if !reflect.DeepEqual(ran, []int{0, 4, 8}) {
		t.Fatalf("ran chunks %v", ran)
	}
}

func TestForEachChunkedFailFast(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 4, 8} {
		const n, grain = 1000, 10
		ran := make([]atomic.Bool, n/grain)
		err := ForEachChunked(n, workers, grain, func(lo, hi int) error {
			ran[lo/grain].Store(true)
			if lo <= 55 && 55 < hi {
				return fmt.Errorf("chunk %d: %w", lo, boom)
			}
			if lo <= 905 && 905 < hi {
				return fmt.Errorf("chunk %d", lo)
			}
			return nil
		})
		if !errors.Is(err, boom) || err.Error() != "chunk 50: boom" {
			t.Fatalf("workers=%d: err = %v, want chunk 50's error", workers, err)
		}
		for c := 0; c <= 5; c++ {
			if !ran[c].Load() {
				t.Fatalf("workers=%d: chunk %d below the failure never ran", workers, c*grain)
			}
		}
	}
}

func TestForEachChunkedEmpty(t *testing.T) {
	if err := ForEachChunked(0, 4, 8, nil); err != nil {
		t.Fatalf("n=0 must be a no-op, got %v", err)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, 4, nil); err != nil {
		t.Fatalf("n=0 must be a no-op, got %v", err)
	}
}
