package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"dsenergy/internal/cronos"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/serve"
	"dsenergy/internal/xrand"
)

func TestSameSeedSameInputs(t *testing.T) {
	spec := gpusim.V100Spec()
	a, err := advisorShapes(spec, xrand.New(7).Split())
	if err != nil {
		t.Fatal(err)
	}
	b, err := advisorShapes(spec, xrand.New(7).Split())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("advisor universe differs between two draws of one seed")
	}
	c, err := advisorShapes(spec, xrand.New(8).Split())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("advisor universe does not depend on the seed")
	}
	if len(a) != len(c) {
		t.Errorf("universe size depends on the seed: %d vs %d", len(a), len(c))
	}

	pa1, pb1, r1 := blastParams(7)
	pa2, pb2, r2 := blastParams(7)
	if pa1 != pa2 || pb1 != pb2 || r1 != r2 {
		t.Error("blast parameters differ between two draws of one seed")
	}
	for seed := uint64(0); seed < 50; seed++ {
		pa, pb, r := blastParams(seed)
		if pa < 0.05 || pa > 0.2 || pb < 5 || pb > 20 || r < 0.08 || r > 0.18 {
			t.Errorf("seed %d: blast parameters (%g, %g, %g) outside the stated range", seed, pa, pb, r)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the helper must sort
		}
		return xs
	}
	if _, ok := percentile(sample(199), 0.95); ok {
		t.Error("p95 of 199 samples has 9 beyond it and must not be reported")
	}
	v, ok := percentile(sample(200), 0.95)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %g, %v; want 190, true", v, ok)
	}
	if _, ok := percentile(sample(10), 0.5); ok {
		t.Error("p50 of 10 samples has 5 beyond it and must not be reported")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(defs), len(declared))
			return
		}
		for i, d := range defs {
			if !valid.MatchString(d.Name) {
				t.Errorf("metric name %q does not match [A-Za-z0-9_.-]+", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q used twice", d.Name)
			}
			seen[d.Name] = true
			if d.Name != declared[i].Name || d.Unit != declared[i].Unit {
				t.Errorf("%s %d: harness %s (%s), BENCHMARK.json %s (%s)",
					kind, i, d.Name, d.Unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer(), bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("harness has %d workloads, BENCHMARK.json %d", len(workloads), len(bf.Workloads))
	}
	for i, w := range workloads {
		if w.name != bf.Workloads[i].Name {
			t.Errorf("workload %d: harness %s, BENCHMARK.json %s", i, w.name, bf.Workloads[i].Name)
		}
	}
}

func TestReproduceGateFiresOnFlippedByte(t *testing.T) {
	golden := [][]byte{[]byte("fig01\n"), []byte("fig02\n")}
	out := [][]byte{[]byte("fig01\n"), []byte("fig02\n")}
	if n := fileFailures(out, golden, golden, true); n != 0 {
		t.Fatalf("identical output: %d failures", n)
	}
	flipped := [][]byte{out[0], append([]byte(nil), out[1]...)}
	flipped[1][2] ^= 1
	if n := fileFailures(flipped, golden, golden, true); n != 1 {
		t.Errorf("one flipped byte against the golden: %d failures, want 1", n)
	}
	if n := fileFailures(flipped, out, golden, false); n != 1 {
		t.Errorf("one flipped byte against the first pass: %d failures, want 1", n)
	}
}

func TestAdvisorGateFiresOnDroppedRequest(t *testing.T) {
	ok := &serve.Report{Submitted: 100, Completed: 100}
	if n := requestFailures(ok, 100); n != 0 {
		t.Fatalf("complete round: %d failures", n)
	}
	lost := &serve.Report{Submitted: 100, Completed: 99}
	if n := requestFailures(lost, 100); n != 1 {
		t.Errorf("one request lost: %d failures, want 1", n)
	}
	refused := &serve.Report{Submitted: 100, Completed: 99, Rejected: 1}
	if n := requestFailures(refused, 100); n != 1 {
		t.Errorf("one request refused: %d failures, want 1", n)
	}
	unsent := &serve.Report{Submitted: 99, Completed: 99}
	if n := requestFailures(unsent, 100); n != 1 {
		t.Errorf("one request never submitted: %d failures, want 1", n)
	}
	extra := &serve.Report{Submitted: 101, Completed: 100, Rejected: 1}
	if n := requestFailures(extra, 100); n != 1 {
		t.Errorf("one request beyond the load: %d failures, want 1", n)
	}
}

func TestMHDGateFiresOnPerturbedCell(t *testing.T) {
	g, err := cronos.NewGrid(8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cronos.InitBlastWave(g, 0.1, 10, 0.2)
	g.ApplyBoundary(cronos.Periodic)
	buf := make([]byte, 8*len(g.U[0]))
	mass := g.TotalMass()
	want := gridDigest(g, buf)
	if p := gridProblem(g, mass, gridDigest(g, buf), want); p != "" {
		t.Fatalf("untouched grid: %s", p)
	}
	// Each case perturbs one cell so that exactly one check must fire: a
	// momentum change moves only the digest; the density and non-finite
	// cases are compared against their own digest.
	for _, tc := range []struct {
		name      string
		v         int
		val       func(old float64) float64
		ownDigest bool
	}{
		{"momentum", cronos.IMx, func(old float64) float64 { return old + 1e-12 }, false},
		{"density", cronos.IRho, func(old float64) float64 { return old * (1 + 1e-9) }, true},
		{"non-finite", cronos.IEn, func(float64) float64 { return 1 / zero }, true},
	} {
		c := g.Clone()
		c.Set(tc.v, 3, 2, 1, tc.val(c.At(tc.v, 3, 2, 1)))
		d := gridDigest(c, buf)
		w := want
		if tc.ownDigest {
			w = d
		}
		if p := gridProblem(c, mass, d, w); p == "" {
			t.Errorf("perturbed %s cell passed the gate", tc.name)
		}
	}
}

var zero float64
