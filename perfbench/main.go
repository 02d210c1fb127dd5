// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in one process, as users run the pipeline: GOMAXPROCS is the
// machine's core count and every worker count is left at 0.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run sets the workload up several times from the seed, then repeats the
// workload's unit of work until --seconds have passed, checking every
// output. Timings are process CPU seconds (user plus system): on a shared
// virtual machine the hypervisor's stolen time stretches wall-clock time,
// while the CPU time the program consumes stays put. With --trace 0 it reports the end-to-end metrics; with --trace 1
// it runs the timed phase a second time with an obs.Observer attached and
// spans around each call into a layer, reports the per-layer metrics and
// writes the spans to .bench_build/spans/. The last line of standard output
// is the JSON result. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"

	"dsenergy/internal/obs"
)

// defaultSeed is the seed of the checked-in results and goldens.
const defaultSeed = 2023

// metricDef names one reported metric. Exact marks a per-layer count that
// repeats exactly across runs of one seed, so a change may claim it.
type metricDef struct {
	Name  string
	Unit  string
	Exact bool
}

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "cpu_s", Unit: "s"},
	{Name: "req_per_s", Unit: "1/s"},
	{Name: "step_p50_ms", Unit: "ms"},
	{Name: "alloc_mb", Unit: "MB"},
	{Name: "live_mb", Unit: "MB"},
}

// perLayer are the metrics of a traced run. A workload that does not reach
// a layer reports 0 for that layer's metrics.
func perLayer() []metricDef {
	defs := make([]metricDef, 0, 64)
	for _, f := range reproduceFiles {
		defs = append(defs, metricDef{Name: fileMetric(f.name), Unit: "s"})
	}
	return append(defs,
		metricDef{Name: "ml.forest_tree_s", Unit: "s"},
		metricDef{Name: "ml.forest_trees", Unit: "count", Exact: true},
		metricDef{Name: "ml.cv_fold_s", Unit: "s"},
		metricDef{Name: "ml.grid_point_s", Unit: "s"},
		metricDef{Name: "gpusim.analytic_hit_ratio", Unit: "ratio"},
		metricDef{Name: "gpusim.kernel_launches", Unit: "count", Exact: true},
		metricDef{Name: "synergy.measurements", Unit: "count", Exact: true},
		metricDef{Name: "core.build_dataset_s", Unit: "s"},
		metricDef{Name: "core.train_s", Unit: "s"},
		metricDef{Name: "core.predict_us_per_req", Unit: "us"},
		metricDef{Name: "serve.publish_ms", Unit: "ms"},
		metricDef{Name: "serve.hit_ratio", Unit: "ratio", Exact: true},
		metricDef{Name: "serve.batches", Unit: "count", Exact: true},
		metricDef{Name: "serve.flights_per_batch", Unit: "count", Exact: true},
		metricDef{Name: "serve.coalesced", Unit: "count", Exact: true},
		metricDef{Name: "serve.shard_s", Unit: "s"},
		metricDef{Name: "cronos.step_allocs", Unit: "count", Exact: true},
		metricDef{Name: "cronos.flux_evals_per_step", Unit: "count", Exact: true},
		metricDef{Name: "cronos.step_p95_ms", Unit: "ms"},
		metricDef{Name: "cronos.new_solver_ms", Unit: "ms"},
		metricDef{Name: "runtime.wall_s", Unit: "s"},
		metricDef{Name: "runtime.gc_cpu_s", Unit: "s"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count"},
		metricDef{Name: "obs.trace_overhead_frac", Unit: "ratio"},
	)
}

// workload is one benchmark input set.
type workload struct {
	name string
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median and the last state is the one timed.
	setupReps int
	// setUp builds the workload's state from the seed.
	setUp func(seed uint64, e env) (instance, error)
}

// env is what a set-up or an iteration may use: the run's clock and, when
// traced, a tracer and an observer (both nil otherwise).
type env struct {
	clk *clock
	tr  *tracer
	o   *obs.Observer
}

// instance is a workload's state after set-up.
type instance interface {
	// iterate runs one fixed unit of the timed phase and checks its
	// outputs.
	iterate(e env) (iteration, error)
	// runLayers returns the per-layer metrics a traced run measures outside
	// single iterations: set-up costs and percentiles pooled over steps.
	runLayers() map[string]float64
	// verify runs the checks that span the whole timed phase and returns
	// one message per failed check.
	verify() []string
}

// iteration is what one unit of timed work reports.
type iteration struct {
	ops, failed int
	// stepsS are the CPU seconds of the unit's steps.
	stepsS []float64
	// layers holds the per-layer metrics of a traced iteration.
	layers map[string]float64
}

// measured is one iteration with the host costs the harness took around it.
type measured struct {
	iteration
	wallS, allocB, cpuS, gcCPUS, gcCycles float64
}

var workloads = []workload{
	// reproduce-quick's set-up takes a fraction of a millisecond, so it
	// needs many repetitions for a steady median.
	{name: "reproduce-quick", setupReps: 101, setUp: setUpReproduce},
	{name: "advisor-mix", setupReps: 5, setUp: setUpAdvisor},
	{name: "mhd-solve", setupReps: 5, setUp: setUpMHD},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: reproduce-quick, advisor-mix or mhd-solve")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload reproduce-quick|advisor-mix|mhd-solve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run performs one benchmark run and assembles its result.
func run(w workload, seed uint64, seconds float64, trace bool) (result, error) {
	clk := newClock()
	var tr *tracer
	if trace {
		tr = newTracer(clk)
	}

	var (
		inst   instance
		setupS []float64
	)
	for r := 0; r < w.setupReps; r++ {
		var o *obs.Observer
		if trace {
			o = obs.NewObserver()
		}
		span := tr.begin("perfbench.setup")
		c0 := cpuSeconds()
		i, err := w.setUp(seed, env{clk: clk, tr: tr, o: o})
		setupS = append(setupS, cpuSeconds()-c0)
		tr.end(span)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		inst = i
	}

	plain, err := timedPhase(inst, clk, seconds, nil, false)
	if err != nil {
		return result{}, err
	}
	// The live heap is read after forced GCs while the state is reachable.
	// The second GC empties the sync.Pool victim caches the first one left.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveMB := float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(inst)

	res := result{Correct: true, Metrics: map[string]value{}}
	phases := [][]measured{plain}
	var traced []measured
	if trace {
		if traced, err = timedPhase(inst, clk, seconds, tr, true); err != nil {
			return result{}, err
		}
		phases = append(phases, traced)
	}
	for _, ph := range phases {
		for _, it := range ph {
			res.Attempted += it.ops
			res.Failed += it.failed
		}
	}
	problems := inst.verify()
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0

	var steps []float64
	for _, it := range plain {
		steps = append(steps, it.stepsS...)
	}
	summarize(w.name, seed, plain, steps)

	defs, vals := endToEnd, endToEndMetrics(setupS, plain, steps, liveMB)
	if trace {
		defs, vals = perLayer(), layerMetrics(inst, plain, traced)
		fmt.Print("perfbench: exact counts:")
		for _, d := range defs {
			if d.Exact {
				fmt.Printf(" %s=%v", d.Name, vals[d.Name])
			}
		}
		fmt.Println()
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := tr.write(path); err != nil {
			return result{}, err
		}
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %q was not measured", d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		return result{}, fmt.Errorf("measured %d metrics, %d are declared", len(vals), len(defs))
	}
	return res, nil
}

// endToEndMetrics computes the metrics of an untraced run. Every iteration
// of a workload does the same operations, so the throughput is taken from
// the median iteration, which one slow iteration does not move.
func endToEndMetrics(setupS []float64, plain []measured, steps []float64, liveMB float64) map[string]float64 {
	cpuS := median(field(plain, func(m measured) float64 { return m.cpuS }))
	return map[string]float64{
		"setup_s":     median(setupS),
		"cpu_s":       cpuS,
		"req_per_s":   float64(plain[0].ops) / cpuS,
		"step_p50_ms": 1000 * median(steps),
		"alloc_mb":    median(field(plain, func(m measured) float64 { return m.allocB })) / 1e6,
		"live_mb":     liveMB,
	}
}

// layerMetrics computes the metrics of a traced run: the instance's own,
// the medians over the traced iterations, the runtime's costs per untraced
// iteration and the tracing overhead. Layers the workload does not reach
// read 0.
func layerMetrics(inst instance, plain, traced []measured) map[string]float64 {
	vals := map[string]float64{}
	for _, d := range perLayer() {
		vals[d.Name] = 0
	}
	perIter := make([]map[string]float64, 0, len(traced))
	for _, it := range traced {
		perIter = append(perIter, it.layers)
	}
	for _, src := range []map[string]float64{inst.runLayers(), medianOf(perIter)} {
		for k, v := range src {
			vals[k] = v
		}
	}
	vals["runtime.wall_s"] = median(field(plain, func(m measured) float64 { return m.wallS }))
	vals["runtime.gc_cpu_s"] = median(field(plain, func(m measured) float64 { return m.gcCPUS }))
	vals["runtime.gc_cycles"] = median(field(plain, func(m measured) float64 { return m.gcCycles }))
	vals["obs.trace_overhead_frac"] = median(field(traced, func(m measured) float64 { return m.cpuS }))/
		median(field(plain, func(m measured) float64 { return m.cpuS })) - 1
	return vals
}

// timedPhase repeats the instance's unit of work until seconds have passed,
// always at least once, recording the host costs of each iteration.
func timedPhase(inst instance, clk *clock, seconds float64, tr *tracer, observed bool) ([]measured, error) {
	var out []measured
	start := clk.now()
	for len(out) == 0 || clk.since(start) < seconds {
		var o *obs.Observer
		if observed {
			o = obs.NewObserver()
		}
		before := sampleHost()
		span := tr.begin("perfbench.iteration")
		t0 := clk.now()
		it, err := inst.iterate(env{clk: clk, tr: tr, o: o})
		wall := clk.since(t0)
		tr.end(span)
		after := sampleHost()
		if err != nil {
			return nil, err
		}
		cpu := after.cpuS - before.cpuS
		if it.stepsS == nil {
			it.stepsS = []float64{cpu} // the unit is one step
		}
		out = append(out, measured{
			iteration: it,
			wallS:     wall,
			allocB:    after.allocB - before.allocB,
			cpuS:      cpu,
			gcCPUS:    after.gcCPUS - before.gcCPUS,
			gcCycles:  after.gcCycles - before.gcCycles,
		})
	}
	return out, nil
}

// host is a reading of the process's cumulative costs.
type host struct {
	allocB, mallocs, cpuS, gcCPUS, gcCycles float64
}

var hostSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// sampleHost reads the process's costs. ReadMemStats flushes every
// per-P allocation cache, so its counts are exact where runtime/metrics'
// allocation counters lag behind.
func sampleHost() host {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(hostSamples)
	return host{
		allocB:   float64(ms.TotalAlloc),
		mallocs:  float64(ms.Mallocs),
		cpuS:     cpuSeconds(),
		gcCPUS:   hostSamples[0].Value.Float64(),
		gcCycles: float64(hostSamples[1].Value.Uint64()),
	}
}

// cpuSeconds returns the user plus system CPU time of the whole process.
// The kernel leaves the hypervisor's stolen time out of it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for a bad pointer.
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// summarize prints the human-readable lines that precede the JSON result:
// iteration and step counts and the highest step percentile the sample
// supports.
func summarize(name string, seed uint64, plain []measured, steps []float64) {
	fmt.Printf("perfbench: %s seed=%d iterations=%d wall_p50=%.4gs steps=%d step_cpu_p50=%.4gms",
		name, seed, len(plain), median(field(plain, func(m measured) float64 { return m.wallS })),
		len(steps), 1000*median(steps))
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75} {
		if v, ok := percentile(steps, q); ok {
			fmt.Printf(" step_cpu_p%.0f=%.4gms", 100*q, 1000*v)
			break
		}
	}
	fmt.Println()
}

func field(ms []measured, f func(measured) float64) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = f(m)
	}
	return out
}
