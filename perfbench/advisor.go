package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"

	"dsenergy/internal/core"
	"dsenergy/internal/experiments"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/sched"
	"dsenergy/internal/serve"
	"dsenergy/internal/synergy"
	"dsenergy/internal/xrand"
)

const (
	// advisorTail is the number of seeded tail shapes per shard. With the
	// scheduler ladders in front and three deadline tiers, it sizes the
	// request universe so the 256-entry LRU answers about nine requests in
	// ten.
	advisorTail = 90
	// advisorRequests is each shard's open-loop request count per round.
	advisorRequests = 60_000
	// advisorCandidates bounds each device's candidate clock menu.
	advisorCandidates = 16
	// advisorProbes is the number of tail shapes per shard whose batched
	// answers are compared with per-request advice.
	advisorProbes = 24
	// advisorGolden is the sha256 of Report.WriteText at the default seed.
	advisorGolden = "c68902f59b2194e650410e9564c98729361c652fb9bb9956ed576e89089a414e"
)

// advisorTiers are the deadline slack multipliers of serve.Load's default.
var advisorTiers = []float64{2, 4, 8}

// advisor is the advisor-mix workload: serve.Run over a V100 and an MI100
// shard, each serving LiGen and Cronos forests trained at the paper
// protocol, one operation per submitted request.
type advisor struct {
	seed   uint64
	cfg    serve.Config
	regs   []*serve.Registry // the set-up registries, for the spot checks
	digest []byte            // sha256 of the first round's report
	rounds int
	layers map[string]float64
}

func setUpAdvisor(seed uint64, e env) (instance, error) {
	tr, o := e.tr, e.o
	ec := experiments.DefaultConfig()
	ec.Seed = seed
	ec.Obs = o
	var p *synergy.Platform
	err := call(tr, "experiments.Platform", func() (err error) { p, err = ec.Platform(); return })
	if err != nil {
		return nil, err
	}
	a := &advisor{seed: seed, cfg: serve.Config{Seed: seed, Workers: 0}}
	var buildS, trainS, publishS, predictS float64
	var publishes, predicted int
	rng := xrand.New(seed)
	for qi, q := range p.Queues() {
		spec := q.Spec()
		freqs := candidateFreqs(spec)
		reg := serve.NewRegistry(spec.Name)
		models := map[string][]byte{}
		for ai, app := range []sched.App{sched.AppLiGen, sched.AppCronos} {
			schema, wls, err := ladderWorkloads(app)
			if err != nil {
				return nil, err
			}
			var ds *core.Dataset
			s := tr.begin("core.BuildDataset")
			ds, err = core.BuildDataset(q, schema, wls, core.BuildConfig{Freqs: freqs, Reps: ec.Reps, Workers: ec.Jobs})
			buildS += tr.end(s)
			if err != nil {
				return nil, err
			}
			var m *core.Model
			s = tr.begin("core.Train")
			m, err = core.Train(ds, ec.ForestSpec(), seed+uint64(10*qi+ai))
			trainS += tr.end(s)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := call(tr, "core.Model.Save", func() error { return m.Save(&buf) }); err != nil {
				return nil, err
			}
			models[app.String()] = buf.Bytes()
			s = tr.begin("serve.Registry.Publish")
			_, err = reg.Publish(app.String(), buf.Bytes())
			publishS += tr.end(s)
			publishes++
			if err != nil {
				return nil, err
			}
		}
		shapes, err := advisorShapes(spec, rng.Split())
		if err != nil {
			return nil, err
		}
		if tr != nil {
			d, n, err := timePredict(tr, reg, shapes, freqs)
			if err != nil {
				return nil, err
			}
			predictS += d
			predicted += n
		}
		a.regs = append(a.regs, reg)
		a.cfg.Shards = append(a.cfg.Shards, serve.ShardConfig{
			Device: spec.Name,
			Freqs:  freqs,
			Models: models,
			Shapes: shapes,
			Load:   serve.Load{Mode: "open", Requests: advisorRequests},
		})
	}
	if o != nil {
		a.layers = obsLayers(o)
		a.layers["core.build_dataset_s"] = buildS
		a.layers["core.train_s"] = trainS
		a.layers["serve.publish_ms"] = 1000 * publishS / float64(publishes)
		a.layers["core.predict_us_per_req"] = 1e6 * predictS / float64(predicted)
	}
	return a, nil
}

// timePredict times PredictCurvesBatch over every shape of the universe,
// one batch per app, and returns the seconds spent and the inputs predicted.
func timePredict(tr *tracer, reg *serve.Registry, shapes []serve.Shape, freqs []int) (float64, int, error) {
	byApp := map[string][][]float64{}
	for _, sh := range shapes {
		byApp[sh.App] = append(byApp[sh.App], sh.Features)
	}
	var secs float64
	n := 0
	for _, app := range []string{"ligen", "cronos"} {
		e, ok := reg.Lookup(app)
		if !ok {
			return 0, 0, fmt.Errorf("no %s model published", app)
		}
		s := tr.begin("core.Model.PredictCurvesBatch")
		_, err := e.Model.PredictCurvesBatch(byApp[app], freqs)
		secs += tr.end(s)
		if err != nil {
			return 0, 0, err
		}
		n += len(byApp[app])
	}
	return secs, n, nil
}

// candidateFreqs subsamples a device's modeling band (clocks at or above
// 40% of f_max) to at most advisorCandidates clocks, walking down from
// f_max so the fastest clock is always a candidate.
func candidateFreqs(spec gpusim.Spec) []int {
	band := spec.FreqsAbove(0.40)
	stride := (len(band) + advisorCandidates - 1) / advisorCandidates
	var picked []int
	for i := len(band) - 1; i >= 0; i -= stride {
		picked = append([]int{band[i]}, picked...)
	}
	return picked
}

// ladderJobs are the scheduler's size ladder of one app: the inputs the
// advisor's models are trained on, and the popular head of its universe.
func ladderJobs(app sched.App) []sched.Job {
	var jobs []sched.Job
	if app == sched.AppLiGen {
		for _, in := range sched.LiGenSizeLadder() {
			jobs = append(jobs, sched.Job{App: app, LiGen: in})
		}
		return jobs
	}
	for _, sz := range sched.CronosSizeLadder() {
		jobs = append(jobs, sched.Job{App: app, Grid: sz.Grid, Steps: sz.Steps})
	}
	return jobs
}

// ladderWorkloads are the training inputs of one app's model.
func ladderWorkloads(app sched.App) (core.Schema, []core.FeaturedWorkload, error) {
	schema := core.LiGenSchema()
	if app == sched.AppCronos {
		schema = core.CronosSchema()
	}
	jobs := ladderJobs(app)
	wls := make([]core.FeaturedWorkload, len(jobs))
	for i, j := range jobs {
		w, err := j.Workload()
		if err != nil {
			return core.Schema{}, nil, err
		}
		wls[i] = core.FeaturedWorkload{Workload: w, Features: j.Features()}
	}
	return schema, wls, nil
}

// advisorShapes is one shard's request universe: the scheduler ladders
// first, where serve's popularity-skewed draw concentrates the load, then
// advisorTail seeded shapes from the paper's input ranges (LiGen: 2-10000
// ligands, 31-89 atoms, 4-20 fragments; Cronos: 10-160 x 4-64 x 4-64
// cells). Nominal times are the noiseless analytic f_max times.
func advisorShapes(spec gpusim.Spec, rng *xrand.Rand) ([]serve.Shape, error) {
	uniform := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	jobs := append(ladderJobs(sched.AppLiGen), ladderJobs(sched.AppCronos)...)
	for i := 0; i < advisorTail; i++ {
		if rng.Intn(2) == 0 {
			in := ligen.Input{Ligands: uniform(2, 10000), Atoms: uniform(31, 89), Fragments: uniform(4, 20)}
			jobs = append(jobs, sched.Job{App: sched.AppLiGen, LiGen: in})
		} else {
			grid := [3]int{uniform(10, 160), uniform(4, 64), uniform(4, 64)}
			jobs = append(jobs, sched.Job{App: sched.AppCronos, Grid: grid, Steps: 10})
		}
	}
	dev, err := gpusim.New(spec, 0)
	if err != nil {
		return nil, err
	}
	shapes := make([]serve.Shape, len(jobs))
	for i, j := range jobs {
		w, err := j.Workload()
		if err != nil {
			return nil, err
		}
		// Both apps' workloads evaluate the noiseless analytic model.
		t, _ := w.(interface {
			AnalyticOn(*gpusim.Device, int) (float64, float64)
		}).AnalyticOn(dev, spec.FMaxMHz())
		shapes[i] = serve.Shape{App: j.App.String(), Features: j.Features(), NominalS: t}
	}
	return shapes, nil
}

func (a *advisor) iterate(e env) (iteration, error) {
	tr, o := e.tr, e.o
	cfg := a.cfg
	cfg.Obs = o
	var rep *serve.Report
	err := call(tr, "serve.Run", func() (err error) { rep, err = serve.Run(cfg); return })
	if err != nil {
		return iteration{}, err
	}
	want := len(cfg.Shards) * advisorRequests
	it := iteration{ops: want, failed: requestFailures(rep, want)}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		return iteration{}, err
	}
	sum := sha256.Sum256(text.Bytes())
	if a.digest == nil {
		a.digest = sum[:]
	} else if !bytes.Equal(a.digest, sum[:]) {
		// The simulated statistics of one config never change between rounds.
		it.failed = it.ops
	}
	a.rounds++
	if o != nil {
		it.layers = map[string]float64{
			"serve.hit_ratio":         rep.CacheHitRate(),
			"serve.batches":           float64(rep.Batches),
			"serve.flights_per_batch": rep.MeanBatchFlights,
			"serve.coalesced":         float64(rep.Coalesced),
			"serve.shard_s":           o.Profile().Phase("serve.shard").Total().Seconds(),
		}
	}
	return it, nil
}

// requestFailures counts the requests of a round that were not answered:
// refused, lost, or never submitted. Completed plus rejected must account
// for every submitted request.
func requestFailures(rep *serve.Report, want int) int {
	failed := want - rep.Completed
	if rep.Completed+rep.Rejected != rep.Submitted || rep.Submitted != want {
		failed = max(failed, 1)
	}
	return failed
}

func (a *advisor) runLayers() map[string]float64 { return a.layers }

// verify compares the report digest with the golden at the default seed and
// spot-checks that batched answers are bit-identical to per-request advice
// on sampled tail shapes.
func (a *advisor) verify() []string {
	var problems []string
	fmt.Printf("perfbench: advisor-mix report sha256=%x rounds=%d\n", a.digest, a.rounds)
	if a.seed == defaultSeed && fmt.Sprintf("%x", a.digest) != advisorGolden {
		problems = append(problems, fmt.Sprintf("report sha256 %x, golden %s", a.digest, advisorGolden))
	}
	rng := xrand.New(a.seed + 1)
	for i, sc := range a.cfg.Shards {
		tail := sc.Shapes[len(sc.Shapes)-advisorTail:]
		byApp := map[string][]serve.Shape{}
		for p := 0; p < advisorProbes; p++ {
			sh := tail[rng.Intn(len(tail))]
			byApp[sh.App] = append(byApp[sh.App], sh)
		}
		for _, app := range []string{"ligen", "cronos"} {
			if err := probeBatch(a.regs[i], sc.Freqs, byApp[app]); err != nil {
				problems = append(problems, fmt.Sprintf("%s %s: %v", sc.Device, app, err))
			}
		}
	}
	return problems
}

// probeBatch predicts shapes of one app in one PredictCurvesBatch block and
// checks that every answer drawn from it, at every deadline tier, is bit
// for bit the answer of a lone Entry.Advise.
func probeBatch(reg *serve.Registry, freqs []int, shapes []serve.Shape) error {
	if len(shapes) == 0 {
		return nil
	}
	e, ok := reg.Lookup(shapes[0].App)
	if !ok {
		return fmt.Errorf("no model published")
	}
	inputs := make([][]float64, len(shapes))
	for i, sh := range shapes {
		inputs[i] = sh.Features
	}
	curves, err := e.Model.PredictCurvesBatch(inputs, freqs)
	if err != nil {
		return err
	}
	for i, sh := range shapes {
		for _, tier := range advisorTiers {
			single, err := e.Advise(sh.Features, tier*sh.NominalS, freqs)
			if err != nil {
				return err
			}
			if !sameResponse(single, e.AdviseFromCurve(curves[i], tier*sh.NominalS)) {
				return fmt.Errorf("shape %v tier %g: batched answer differs from Advise", sh.Features, tier)
			}
		}
	}
	return nil
}

// sameResponse compares two advisory responses bit for bit.
func sameResponse(a, b serve.Response) bool {
	return a.App == b.App && a.Device == b.Device && a.Version == b.Version &&
		a.RecommendedMHz == b.RecommendedMHz &&
		a.OnPareto == b.OnPareto && a.Escalated == b.Escalated &&
		math.Float64bits(a.PredTimeS) == math.Float64bits(b.PredTimeS) &&
		math.Float64bits(a.PredEnergyJ) == math.Float64bits(b.PredEnergyJ) &&
		math.Float64bits(a.PredEnergyMaxJ) == math.Float64bits(b.PredEnergyMaxJ)
}
