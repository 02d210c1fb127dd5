package des

import (
	"container/heap"
	"testing"

	"dsenergy/internal/xrand"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0.50, 2}, {0.99, 4}, {0.25, 1}, {1.0, 4},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.q); got != c.want {
			t.Errorf("p%g = %g, want %g", 100*c.q, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty sample must yield 0")
	}
}

// refHeap is the container/heap event heap the queue replaced.
type refEvent struct {
	timeS float64
	seq   int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].timeS < h[j].timeS {
		return true
	}
	if h[j].timeS < h[i].timeS {
		return false
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestQueueMatchesContainerHeap interleaves pushes and pops with many equal
// times and requires the exact pop sequence of the container/heap reference,
// including the push-order tie-break.
func TestQueueMatchesContainerHeap(t *testing.T) {
	rng := xrand.New(5)
	var q Queue[int]
	var ref refHeap
	seq := 0
	for step := 0; step < 5000; step++ {
		if q.Len() != ref.Len() {
			t.Fatalf("step %d: len %d, reference %d", step, q.Len(), ref.Len())
		}
		if q.Len() > 0 && rng.Float64() < 0.45 {
			gotT, got := q.Pop()
			want := heap.Pop(&ref).(refEvent)
			if gotT != want.timeS || got != want.seq {
				t.Fatalf("step %d: popped (%g, %d), reference (%g, %d)", step, gotT, got, want.timeS, want.seq)
			}
			continue
		}
		timeS := float64(rng.Intn(20)) // few distinct times: ties are common
		q.Push(timeS, seq)
		heap.Push(&ref, refEvent{timeS: timeS, seq: seq})
		seq++
	}
}
