package gpusim

import (
	"errors"
	"testing"

	"dsenergy/internal/kernels"
)

func TestValidateRejectsDuplicateFreqs(t *testing.T) {
	cases := []struct {
		name  string
		freqs []int
		dup   int
	}{
		{"adjacent at start", []int{135, 135, 500, 1597}, 135},
		{"adjacent in middle", []int{135, 500, 500, 1597}, 500},
		{"adjacent at end", []int{135, 500, 1597, 1597}, 1597},
	}
	for _, c := range cases {
		s := V100Spec()
		s.CoreFreqsMHz = c.freqs
		s.DefaultFreqMHz = 135
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: duplicate table %v must be rejected", c.name, c.freqs)
			continue
		}
		var dup *DuplicateFreqError
		if !errors.As(err, &dup) {
			t.Errorf("%s: error %v is not a *DuplicateFreqError", c.name, err)
			continue
		}
		if dup.MHz != c.dup || dup.Device != s.Name {
			t.Errorf("%s: got (%q, %d MHz), want (%q, %d MHz)", c.name, dup.Device, dup.MHz, s.Name, c.dup)
		}
	}
	if err := V100Spec().Validate(); err != nil {
		t.Fatalf("strictly ascending preset must stay valid: %v", err)
	}
}

// offMenuProbes returns frequencies that are not on the spec's clock menu:
// below the table, between two entries, and above the table.
func offMenuProbes(tb testing.TB, s Spec) []int {
	tb.Helper()
	probes := []int{s.FMinMHz() - 3, s.CoreFreqsMHz[len(s.CoreFreqsMHz)/2] + 1, s.FMaxMHz() + 50}
	for _, f := range probes {
		if s.HasFreq(f) {
			tb.Fatalf("probe %d unexpectedly on the menu", f)
		}
	}
	return probes
}

func TestAnalyzeAtOffMenuMatchesDirectEvaluation(t *testing.T) {
	// Off-menu clocks (NearestFreq interpolation call sites probe these)
	// have no tabulated terms: AnalyzeAt must evaluate the compiled profile
	// against freshly computed frequency terms.
	for _, spec := range AllSpecs() {
		d := mustNew(t, spec, 1)
		for _, p := range []kernels.Profile{computeBound(), memoryBound()} {
			var cp compiledProfile
			d.spec.compileInto(&cp, &p)
			for _, f := range offMenuProbes(t, spec) {
				var want Breakdown
				ft := d.spec.freqTermsAt(f)
				d.spec.evalInto(&want, &cp, &ft)
				if got := d.AnalyzeAt(p, f); got != want {
					t.Errorf("%s %s at off-menu %d MHz: %+v != direct %+v", spec.Name, p.Name, f, got, want)
				}
			}
		}
	}
}

func TestAnalyzeCurveMatchesAnalyzeAt(t *testing.T) {
	for _, spec := range AllSpecs() {
		d := mustNew(t, spec, 1)
		// Full menu plus off-menu probes in one batch.
		freqs := append(append([]int(nil), spec.CoreFreqsMHz...), offMenuProbes(t, spec)...)
		for _, p := range []kernels.Profile{computeBound(), memoryBound()} {
			curve := d.AnalyzeCurve(p, freqs)
			if len(curve) != len(freqs) {
				t.Fatalf("%s: curve length %d, want %d", spec.Name, len(curve), len(freqs))
			}
			for i, f := range freqs {
				if want := d.AnalyzeAt(p, f); curve[i] != want {
					t.Errorf("%s %s curve[%d] (%d MHz) = %+v, want %+v", spec.Name, p.Name, i, f, curve[i], want)
				}
			}
		}
	}
	d := mustNew(t, V100Spec(), 1)
	if got := d.AnalyzeCurve(computeBound(), nil); len(got) != 0 {
		t.Fatalf("empty frequency list must yield an empty curve, got %d entries", len(got))
	}
}

func TestForkSharesFreqTables(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	child := d.Fork()
	if child.tables != d.tables {
		t.Fatal("fork must share the parent's immutable frequency tables")
	}
	p := memoryBound()
	for _, f := range []int{d.Spec().FMinMHz(), 1297, d.Spec().FMaxMHz() + 50} {
		if got, want := child.AnalyzeAt(p, f), d.AnalyzeAt(p, f); got != want {
			t.Errorf("at %d MHz: fork %+v != parent %+v", f, got, want)
		}
	}
}

func TestThrottleWalkPicksHighestFittingClock(t *testing.T) {
	// Under an effective cap the governor runs the highest menu clock at or
	// below the requested one whose AnalyzeAt power fits, or the lowest
	// clock when none does.
	for _, spec := range AllSpecs() {
		d := mustNew(t, spec, 7)
		d.SetNoiseSigma(0)
		for _, p := range []kernels.Profile{computeBound(), memoryBound()} {
			peakW := d.AnalyzeAt(p, spec.FMaxMHz()).TotalPowerW
			for _, frac := range []float64{0.01, 0.5, 0.7, 0.9, 1.5} {
				if err := d.SetPowerCapW(peakW * frac); err != nil {
					t.Fatal(err)
				}
				capW := d.effectiveCapW()
				for _, mhz := range []int{spec.FMaxMHz(), spec.BaselineFreqMHz(), spec.CoreFreqsMHz[len(spec.CoreFreqsMHz)/3]} {
					want := spec.FMinMHz()
					for _, f := range spec.CoreFreqsMHz {
						if f <= mhz && d.AnalyzeAt(p, f).TotalPowerW <= capW {
							want = f
						}
					}
					r, err := d.RunAt(p, mhz)
					if err != nil {
						t.Fatal(err)
					}
					if exact := d.Analytic(p, want); r != exact {
						t.Errorf("%s %s cap %.0f W at %d MHz: ran %+v, want the %d MHz result %+v",
							spec.Name, p.Name, capW, mhz, r, want, exact)
					}
				}
			}
		}
	}
}

func TestAnalyzeAtAllocationFree(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	p := computeBound()
	if allocs := testing.AllocsPerRun(100, func() { d.AnalyzeAt(p, 1297) }); allocs != 0 {
		t.Errorf("on-menu AnalyzeAt allocates %.1f/op, want 0", allocs)
	}
	off := d.Spec().FMaxMHz() + 50
	if allocs := testing.AllocsPerRun(100, func() { d.AnalyzeAt(p, off) }); allocs != 0 {
		t.Errorf("off-menu AnalyzeAt allocates %.1f/op, want 0", allocs)
	}
}

func TestAnalyzeCurveSingleAllocation(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	p := computeBound()
	freqs := d.Spec().CoreFreqsMHz
	if allocs := testing.AllocsPerRun(20, func() { d.AnalyzeCurve(p, freqs) }); allocs != 1 {
		t.Errorf("AnalyzeCurve allocates %.1f/op, want 1 (the result slice)", allocs)
	}
}

func BenchmarkAnalyzeCurve(b *testing.B) {
	// Full V100 clock menu per op; compare against len(menu) AnalyzeAt calls.
	d := mustNew(b, V100Spec(), 1)
	p := computeBound()
	freqs := d.Spec().CoreFreqsMHz
	for i := 0; i < b.N; i++ {
		_ = d.AnalyzeCurve(p, freqs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(freqs)), "ns/point")
}
