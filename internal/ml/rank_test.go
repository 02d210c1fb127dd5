package ml

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"testing"

	"dsenergy/internal/xrand"
)

// comparatorOrder is the presort's reference: sample indices sorted by the
// total order (value, then index).
func comparatorOrder(col []float64) []int32 {
	idx := make([]int32, len(col))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp.Compare(col[a], col[b]); c != 0 {
			return c
		}
		return int(a - b)
	})
	return idx
}

// TestRankPresortMatchesComparator locks the rank-table counting sort to the
// (value, index) comparator order on every column shape the forests see:
// continuous columns, tie-heavy discrete columns shaped like the LiGen and
// Cronos datasets (ligands, atoms, fragments, core clock), signed zeros and a
// constant column, under the identity sample and under bootstrap draws.
func TestRankPresortMatchesComparator(t *testing.T) {
	const n = 700
	rng := xrand.New(99)
	pick := func(levels ...float64) []float64 {
		col := make([]float64, n)
		for i := range col {
			col[i] = levels[rng.Intn(len(levels))]
		}
		return col
	}
	continuous := make([]float64, n)
	for i := range continuous {
		continuous[i] = rng.Norm() * 1e3
	}
	negZero := math.Copysign(0, -1)
	cols := [][]float64{
		continuous,
		pick(2, 256, 1024, 4096, 10000),       // ligands
		pick(31, 45, 60, 89),                  // atoms
		pick(4, 8, 12, 16, 20),                // fragments
		pick(510, 705, 900, 1095, 1290, 1530), // core clock, MHz
		pick(0, negZero, 1, -1),               // ±0 ties
		pick(7),                               // constant
	}
	rt := newRankTable(cols, n, make([]int32, n))
	ws := getWorkspace()
	defer putWorkspace(ws)
	for draw := 0; draw < 6; draw++ {
		boot := make([]int32, n)
		for i := range boot {
			boot[i] = int32(i)
			if draw > 0 {
				boot[i] = int32(rng.Intn(n))
			}
		}
		ws.reset(n, len(cols))
		for f, col := range cols {
			for i, j := range boot {
				ws.cols[f][i] = col[j]
			}
		}
		ws.presort(rt, boot)
		for f := range cols {
			if want := comparatorOrder(ws.cols[f]); !slices.Equal(ws.sorted[f], want) {
				t.Fatalf("draw %d, column %d: counting sort disagrees with the comparator order", draw, f)
			}
		}
	}
}

// TestFitRejectsNonFinite requires every regressor kind to refuse NaN and
// ±Inf in either the features or the targets with ErrNonFinite.
func TestFitRejectsNonFinite(t *testing.T) {
	kinds := map[string]func() Regressor{
		"linear": func() Regressor { return NewLinear() },
		"lasso":  func() Regressor { return NewLasso(0.01) },
		"svr":    func() Regressor { return NewSVR(10, 0.01, 0) },
		"tree":   func() Regressor { return NewTree(0, 1) },
		"forest": func() Regressor { return NewForest(ForestConfig{NumTrees: 3, Seed: 1}) },
	}
	bads := map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}
	for kind, mk := range kinds {
		for badName, bad := range bads {
			for _, inX := range []bool{true, false} {
				X, y := benchData(40) // fresh slices on every call
				if inX {
					X[17][2] = bad
				} else {
					y[23] = bad
				}
				if err := mk().Fit(X, y); !errors.Is(err, ErrNonFinite) {
					t.Errorf("%s with %s in X=%v: got %v, want ErrNonFinite", kind, badName, inX, err)
				}
			}
		}
	}
}
