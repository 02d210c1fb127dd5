package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dsenergy/internal/experiments"
	"dsenergy/internal/obs"
)

// goldenDir holds the checked-in output of `reproduce -quick` at the
// default seed, relative to the root of the checkout.
const goldenDir = "results/quick"

// reproduceFile is one output file of `reproduce -quick`: its generator
// renders the file into w and returns the number of failed CHECK lines.
type reproduceFile struct {
	name string
	gen  func(c experiments.Config, w io.Writer, tr *tracer) (int, error)
}

// reproduceFiles are the studies of cmd/reproduce, in its order, rendered
// exactly as it renders them.
var reproduceFiles = []reproduceFile{
	{"tables.txt", func(_ experiments.Config, w io.Writer, tr *tracer) (int, error) {
		return 0, call(tr, "experiments.RenderTables", func() error {
			experiments.RenderTable1(w)
			fmt.Fprintln(w)
			experiments.RenderTable2(w)
			return nil
		})
	}},
	figureFile("fig01.txt", "Fig1", experiments.Config.Fig1),
	figureFile("fig02.txt", "Fig2", experiments.Config.Fig2),
	figureFile("fig03.txt", "Fig3", experiments.Config.Fig3),
	figureFile("fig04.txt", "Fig4", experiments.Config.Fig4),
	figureFile("fig05.txt", "Fig5", experiments.Config.Fig5),
	figureFile("fig06.txt", "Fig6", experiments.Config.Fig6),
	figureFile("fig07.txt", "Fig7", experiments.Config.Fig7),
	figureFile("fig08.txt", "Fig8", experiments.Config.Fig8),
	figureFile("fig09.txt", "Fig9", experiments.Config.Fig9),
	figureFile("fig10.txt", "Fig10", experiments.Config.Fig10),
	{"fig13.txt", func(c experiments.Config, w io.Writer, tr *tracer) (int, error) {
		var r experiments.Fig13Result
		err := call(tr, "experiments.Fig13", func() (err error) { r, err = c.Fig13(); return })
		if err != nil {
			return 0, err
		}
		return 0, call(tr, "experiments.RenderFig13", func() error { experiments.RenderFig13(w, r); return nil })
	}},
	{"fig14.txt", func(c experiments.Config, w io.Writer, tr *tracer) (int, error) {
		var p []experiments.Fig14Panel
		err := call(tr, "experiments.Fig14", func() (err error) { p, err = c.Fig14(); return })
		if err != nil {
			return 0, err
		}
		return 0, call(tr, "experiments.RenderFig14", func() error { experiments.RenderFig14(w, p); return nil })
	}},
	{"regressors.txt", func(c experiments.Config, w io.Writer, tr *tracer) (int, error) {
		var r []experiments.AlgorithmComparison
		err := call(tr, "experiments.CompareRegressors", func() (err error) { r, err = c.CompareRegressors(); return })
		if err != nil {
			return 0, err
		}
		return 0, call(tr, "experiments.RenderAlgorithmComparison", func() error {
			experiments.RenderAlgorithmComparison(w, r)
			return nil
		})
	}},
	{"ablations.txt", func(c experiments.Config, w io.Writer, tr *tracer) (int, error) {
		return 0, call(tr, "experiments.RenderAblations", func() error { return c.RenderAblations(w) })
	}},
	{"gridsearch.txt", func(c experiments.Config, w io.Writer, tr *tracer) (int, error) {
		var r []experiments.GridSearchResult
		err := call(tr, "experiments.GridSearchRF", func() (err error) { r, err = c.GridSearchRF(); return })
		if err != nil {
			return 0, err
		}
		return 0, call(tr, "experiments.RenderGridSearch", func() error { experiments.RenderGridSearch(w, r); return nil })
	}},
	{"tuners.txt", func(c experiments.Config, w io.Writer, tr *tracer) (int, error) {
		var r experiments.TuningComparison
		err := call(tr, "experiments.CompareTuners", func() (err error) { r, err = c.CompareTuners(); return })
		if err != nil {
			return 0, err
		}
		return 0, call(tr, "experiments.RenderTuningComparison", func() error {
			experiments.RenderTuningComparison(w, r)
			return nil
		})
	}},
	{"perkernel.txt", func(c experiments.Config, w io.Writer, tr *tracer) (int, error) {
		var r experiments.PerKernelResult
		err := call(tr, "experiments.FutureWorkPerKernel", func() (err error) { r, err = c.FutureWorkPerKernel(); return })
		if err != nil {
			return 0, err
		}
		fmt.Fprintln(w, "== per-kernel frequency scaling (§7 future work), Cronos 160x64x64 ==")
		kernels := make([]string, 0, len(r.Plan))
		for k := range r.Plan {
			kernels = append(kernels, k)
		}
		sort.Strings(kernels)
		for _, k := range kernels {
			fmt.Fprintf(w, "   %-16s -> %d MHz\n", k, r.Plan[k])
		}
		fmt.Fprintf(w, "   measured: speedup %.3f, energy saving %.1f%%\n",
			r.Outcome.Speedup(), r.Outcome.EnergySaving()*100)
		return 0, nil
	}},
	{"scaling.txt", func(c experiments.Config, w io.Writer, tr *tracer) (int, error) {
		var lr, cr []experiments.ScalingRow
		err := call(tr, "experiments.StrongScaling", func() (err error) {
			lr, cr, err = c.StrongScaling([]int{1, 2, 4, 8, 16})
			return
		})
		if err != nil {
			return 0, err
		}
		fmt.Fprintln(w, "== strong scaling (V100 cluster) ==")
		fmt.Fprintf(w, "%-8s %12s %12s %12s %12s\n", "devices", "ligen t(s)", "ligen eff", "cronos t(s)", "cronos eff")
		for i := range lr {
			fmt.Fprintf(w, "%-8d %12.4f %12.2f %12.4f %12.2f\n",
				lr[i].Devices, lr[i].TimeS, lr[i].Efficiency, cr[i].TimeS, cr[i].Efficiency)
		}
		return 0, nil
	}},
	{"resilience.txt", func(c experiments.Config, w io.Writer, tr *tracer) (int, error) {
		return 0, call(tr, "experiments.RenderResilience", func() error { return c.RenderResilience(w) })
	}},
	{"schedule.txt", func(c experiments.Config, w io.Writer, tr *tracer) (n int, err error) {
		err = call(tr, "experiments.RenderSchedule", func() (err error) { n, err = c.RenderSchedule(w); return })
		return n, err
	}},
	{"shapechecks.txt", func(c experiments.Config, w io.Writer, tr *tracer) (int, error) {
		var checks []experiments.ShapeCheck
		err := call(tr, "experiments.VerifyShapes", func() (err error) { checks, err = c.VerifyShapes(); return })
		if err != nil {
			return 0, err
		}
		n := 0
		err = call(tr, "experiments.RenderShapeChecks", func() error {
			n = experiments.RenderShapeChecks(w, checks)
			return nil
		})
		return n, err
	}},
}

// figureFile is the generator of one characterization figure.
func figureFile(name, study string, gen func(experiments.Config) (experiments.Figure, error)) reproduceFile {
	return reproduceFile{name, func(c experiments.Config, w io.Writer, tr *tracer) (int, error) {
		var fig experiments.Figure
		err := call(tr, "experiments."+study, func() (err error) { fig, err = gen(c); return })
		if err != nil {
			return 0, err
		}
		return 0, call(tr, "experiments.RenderFigure", func() error { experiments.RenderFigure(w, fig); return nil })
	}}
}

// call runs f inside a span named after the layer function it calls.
func call(tr *tracer, name string, f func() error) error {
	i := tr.begin(name)
	err := f()
	tr.end(i)
	return err
}

// fileMetric is the per-layer metric of one output file, e.g.
// experiments.fig01_s for fig01.txt.
func fileMetric(file string) string {
	return "experiments." + strings.TrimSuffix(file, filepath.Ext(file)) + "_s"
}

// reproduce is the reproduce-quick workload: every study of
// `reproduce -quick` rendered into memory, one operation per output file.
type reproduce struct {
	cfg    experiments.Config
	golden [][]byte // results/quick, compared at the default seed
	first  [][]byte // the first pass's output, compared at every seed
	digest [sha256.Size]byte
	checks int // failed CHECK lines of the first pass
}

func setUpReproduce(seed uint64, _ env) (instance, error) {
	cfg := experiments.QuickConfig()
	cfg.Seed = seed
	cfg.Jobs = 0
	r := &reproduce{cfg: cfg, golden: make([][]byte, len(reproduceFiles))}
	for i, f := range reproduceFiles {
		b, err := os.ReadFile(filepath.Join(goldenDir, f.name))
		if err != nil {
			return nil, err
		}
		r.golden[i] = b
	}
	return r, nil
}

func (r *reproduce) iterate(e env) (iteration, error) {
	tr, o := e.tr, e.o
	cfg := r.cfg
	cfg.Obs = o
	it := iteration{ops: len(reproduceFiles)}
	if tr != nil {
		it.layers = map[string]float64{}
	}
	out := make([][]byte, len(reproduceFiles))
	checks := 0
	for i, f := range reproduceFiles {
		var buf bytes.Buffer
		s := tr.begin("reproduce/" + f.name)
		n, err := f.gen(cfg, &buf, tr)
		d := tr.end(s)
		if err != nil {
			return it, fmt.Errorf("%s: %w", f.name, err)
		}
		checks += n
		out[i] = buf.Bytes()
		if tr != nil {
			it.layers[fileMetric(f.name)] = d
		}
	}
	if r.first == nil {
		r.first = out
		r.checks = checks
		h := sha256.New()
		for _, b := range out {
			h.Write(b)
		}
		copy(r.digest[:], h.Sum(nil))
	}
	it.failed = fileFailures(out, r.first, r.golden, r.cfg.Seed == defaultSeed)
	if o != nil {
		for k, v := range obsLayers(o) {
			it.layers[k] = v
		}
	}
	return it, nil
}

// fileFailures counts the output files that differ from the first pass's
// or, at the default seed, from the checked-in golden.
func fileFailures(out, first, golden [][]byte, atDefault bool) int {
	n := 0
	for i := range out {
		if !bytes.Equal(out[i], first[i]) || (atDefault && !bytes.Equal(out[i], golden[i])) {
			n++
		}
	}
	return n
}

func (r *reproduce) runLayers() map[string]float64 { return nil }

// verify reports the output digest. At the default seed every CHECK line
// must pass; the schedule checks are calibrated to that seed, so at other
// seeds a failed CHECK is reported but is not a benchmark failure.
func (r *reproduce) verify() []string {
	fmt.Printf("perfbench: reproduce-quick output sha256=%x failed-CHECK-lines=%d\n", r.digest, r.checks)
	if r.cfg.Seed == defaultSeed && r.checks > 0 {
		return []string{fmt.Sprintf("%d CHECK lines failed at the default seed", r.checks)}
	}
	return nil
}

// obsLayers reads the per-layer metrics that the program's own phases and
// counters record into an observer.
func obsLayers(o *obs.Observer) map[string]float64 {
	counters := obsCounters(o)
	prof := o.Profile()
	m := map[string]float64{
		"ml.forest_tree_s":       prof.Phase("ml.forest.tree").Total().Seconds(),
		"ml.forest_trees":        counters["ml_trees_trained_total"],
		"ml.cv_fold_s":           prof.Phase("ml.cv.fold").Total().Seconds(),
		"ml.grid_point_s":        prof.Phase("ml.grid.point").Total().Seconds(),
		"gpusim.kernel_launches": counters["gpusim_kernel_launches_total"],
		"synergy.measurements":   counters["synergy_measurements_total"],
	}
	hits, misses := counters["gpusim_analytic_cache_hits_total"], counters["gpusim_analytic_cache_misses_total"]
	if hits+misses > 0 {
		m["gpusim.analytic_hit_ratio"] = hits / (hits + misses)
	}
	return m
}

// obsCounters sums every counter of an observer over its labels, from the
// stable metric export and the unstable ones in the profile dump.
func obsCounters(o *obs.Observer) map[string]float64 {
	var buf bytes.Buffer
	// Both writers only fail when the buffer does.
	if err := o.WriteMetricsText(&buf); err != nil {
		return nil
	}
	if err := o.WriteProfileText(&buf); err != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		// Label values may hold spaces; the value is the last field.
		line := sc.Text()
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		key, val := line[:cut], line[cut+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue // a histogram or phase line, not a counter
		}
		name, _, _ := strings.Cut(key, "{")
		out[name] += v
	}
	return out
}
