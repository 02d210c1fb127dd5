package ml

import "testing"

// TestSolverFitAllocationGuard pins the allocation counts of the Lasso and
// SVR fits. Both solvers front-load their allocations — flat feature
// buffers, the Gram/kernel matrix, the prediction vector — and the sweep
// loops themselves must run allocation-free, so the per-fit count is a small
// constant independent of the iteration count. A per-sweep or per-update
// allocation sneaking into a hot loop multiplies by MaxIter·n and trips the
// bound at once.
func TestSolverFitAllocationGuard(t *testing.T) {
	X, y := benchDataWide(300, 8)

	t.Run("lasso", func(t *testing.T) {
		m := NewLasso(0.01)
		avg := testing.AllocsPerRun(3, func() {
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 16 {
			t.Fatalf("Lasso.Fit allocates %.1f objects per fit, want <= 16", avg)
		}
	})

	t.Run("svr", func(t *testing.T) {
		m := NewSVR(10, 0.01, 0)
		avg := testing.AllocsPerRun(3, func() {
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
		})
		// Fixed setup allocations only: the plain sweep allocates nothing.
		if avg > 64 {
			t.Fatalf("SVR.Fit allocates %.1f objects per fit, want <= 64", avg)
		}
	})
}
