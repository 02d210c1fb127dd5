package parallel

import "testing"

// BenchmarkDispatch measures the pool's per-task overhead: 1<<16 trivial
// tasks (one slot write each) on two workers, so the cost measured is almost
// entirely chunk claiming, closure dispatch and the hand-off to a parked
// helper rather than task work.
func BenchmarkDispatch(b *testing.B) {
	const n = 1 << 16
	out := make([]float64, n)
	b.Run("foreach", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			err := ForEach(n, 2, func(i int) error {
				out[i] = float64(i)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/task")
	})
	b.Run("foreach-chunked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			err := ForEachChunked(n, 2, 0, func(lo, hi int) error {
				for j := lo; j < hi; j++ {
					out[j] = float64(j)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/task")
	})
}
