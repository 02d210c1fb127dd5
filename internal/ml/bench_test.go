package ml

import (
	"math"
	"testing"

	"dsenergy/internal/xrand"
)

func benchData(n int) ([][]float64, []float64) {
	rng := xrand.New(42)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b, c, f := rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*1600
		X[i] = []float64{a, b, c, f}
		y[i] = math.Sin(a) + 0.3*b - 0.1*c + f/1600 + 0.02*rng.Norm()
	}
	return X, y
}

// benchDataWide builds an n×d design with d-1 continuous columns plus one
// discrete frequency-style column (cross-row ties, like the real datasets).
func benchDataWide(n, d int) ([][]float64, []float64) {
	rng := xrand.New(4242)
	levels := []float64{800, 1000, 1200, 1400, 1600}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		var s float64
		for j := 0; j < d-1; j++ {
			row[j] = rng.Float64() * 10
			if j%3 == 0 {
				s += math.Sin(row[j])
			} else {
				s += 0.1 * float64(j) * row[j]
			}
		}
		row[d-1] = levels[rng.Intn(len(levels))]
		X[i] = row
		y[i] = s + row[d-1]/1600 + 0.02*rng.Norm()
	}
	return X, y
}

func BenchmarkLinearFit(b *testing.B) {
	X, y := benchData(2000)
	for i := 0; i < b.N; i++ {
		m := NewLinear()
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLassoFit(b *testing.B) {
	X, y := benchData(2000)
	for i := 0; i < b.N; i++ {
		m := NewLasso(0.01)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVRFit(b *testing.B) {
	X, y := benchData(300) // kernel methods are quadratic; keep modest
	for i := 0; i < b.N; i++ {
		m := NewSVR(10, 0.01, 0)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestFit(b *testing.B) {
	X, y := benchData(2000)
	for i := 0; i < b.N; i++ {
		m := NewForest(ForestConfig{NumTrees: 25, Seed: 1})
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeFit is the single-tree training hot path: one CART fit on a
// 2000×8 design with a discrete column.
func BenchmarkTreeFit(b *testing.B) {
	X, y := benchDataWide(2000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewTree(0, 1)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFitLarge is the acceptance configuration for the training
// engine: n=1000, d=16, 100 trees, serial (Workers=1) so it measures the
// per-core engine rather than the worker pool.
func BenchmarkForestFitLarge(b *testing.B) {
	X, y := benchDataWide(1000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewForest(ForestConfig{NumTrees: 100, Seed: 1, Workers: 1})
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDataTies builds the design the paper's forests train on: every one of
// inputs library shapes (ligands, fragments, atoms, drawn from discrete
// levels) is measured at each of clocks core frequencies, so all four
// columns are tie-heavy.
func benchDataTies(inputs, clocks int) ([][]float64, []float64) {
	rng := xrand.New(2023)
	pick := func(levels ...float64) float64 { return levels[rng.Intn(len(levels))] }
	var X [][]float64
	var y []float64
	for in := 0; in < inputs; in++ {
		l, fr, a := pick(2, 64, 256, 1024, 4096, 10000), pick(4, 8, 12, 16, 20), pick(31, 45, 60, 75, 89)
		for c := 0; c < clocks; c++ {
			f := 510 + float64(c)*1020/float64(clocks)
			X = append(X, []float64{l, fr, a, f})
			y = append(y, math.Log(l)*a/fr/(0.3+f/1530)+0.05*rng.Norm())
		}
	}
	return X, y
}

// BenchmarkForestFitTies is the dataset-shaped forest fit: 40 inputs × 25
// clocks with three discrete input features plus the clock column, 100
// trees, serial.
func BenchmarkForestFitTies(b *testing.B) {
	X, y := benchDataTies(40, 25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewForest(ForestConfig{NumTrees: 100, Seed: 1, Workers: 1})
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestPredictBatch measures bulk inference: 2000 rows through a
// 50-tree forest per iteration.
func BenchmarkForestPredictBatch(b *testing.B) {
	X, y := benchDataWide(2000, 8)
	m := NewForest(ForestConfig{NumTrees: 50, Seed: 1})
	if err := m.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PredictBatch(m, X)
	}
}

func BenchmarkForestPredict(b *testing.B) {
	X, y := benchData(2000)
	m := NewForest(ForestConfig{NumTrees: 50, Seed: 1})
	if err := m.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	probe := []float64{5, 5, 5, 1300}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(probe)
	}
}

// BenchmarkLassoFitWide is the active-set acceptance shape: a 2000×16 design
// where the L1 penalty zeroes most coordinates, so sweeps over the full
// coordinate range waste work the active set can skip.
func BenchmarkLassoFitWide(b *testing.B) {
	X, y := benchDataWide(2000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewLasso(0.01)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVRFitLarge doubles the kernel matrix rows of BenchmarkSVRFit:
// n=600 on the wide design with a discrete frequency column.
func BenchmarkSVRFitLarge(b *testing.B) {
	X, y := benchDataWide(600, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewSVR(10, 0.01, 0)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}
