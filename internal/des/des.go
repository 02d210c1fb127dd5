// Package des is the discrete-event core shared by the scheduler and the
// advisor service: an event queue on simulated time and the nearest-rank
// percentile their reports use.
package des

// Queue is a min-queue of events ordered by (time, push order). Push stamps
// each event with a sequence number, so events at equal times pop in the
// order they were pushed and a run is deterministic. The zero value is an
// empty queue.
type Queue[T any] struct {
	items []entry[T]
	seq   int
}

type entry[T any] struct {
	timeS float64
	seq   int
	ev    T
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push queues ev at simulated time timeS.
func (q *Queue[T]) Push(timeS float64, ev T) {
	q.items = append(q.items, entry[T]{timeS: timeS, seq: q.seq, ev: ev})
	q.seq++
	q.up(len(q.items) - 1)
}

// Pop removes and returns the earliest event and its time. The queue must
// not be empty.
func (q *Queue[T]) Pop() (float64, T) {
	n := len(q.items) - 1
	q.items[0], q.items[n] = q.items[n], q.items[0]
	q.down(0, n)
	e := q.items[n]
	q.items = q.items[:n]
	return e.timeS, e.ev
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.timeS < b.timeS {
		return true
	}
	if b.timeS < a.timeS {
		return false
	}
	return a.seq < b.seq
}

// up and down are container/heap's sift steps.
func (q *Queue[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		j = i
	}
}

func (q *Queue[T]) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		i = j
	}
}

// Percentile is the nearest-rank q-quantile of an ascending sample, 0 for an
// empty one.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
