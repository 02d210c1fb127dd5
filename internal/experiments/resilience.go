package experiments

import (
	"fmt"
	"io"

	"dsenergy/internal/cluster"
	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/obs"
	"dsenergy/internal/parallel"
)

// ResilienceRow compares one application's fault-free and fault-injected run
// on the same cluster configuration.
type ResilienceRow struct {
	App       string
	FaultFree cluster.Result
	Faulty    cluster.Result
}

// TimeOverhead is the wall-time cost of surviving the fault plan, relative
// to the fault-free run.
func (r ResilienceRow) TimeOverhead() float64 {
	if r.FaultFree.TimeS <= 0 {
		return 0
	}
	return r.Faulty.TimeS/r.FaultFree.TimeS - 1
}

// EnergyOverhead is the energy cost of surviving the fault plan.
func (r ResilienceRow) EnergyOverhead() float64 {
	if r.FaultFree.EnergyJ <= 0 {
		return 0
	}
	return r.Faulty.EnergyJ/r.FaultFree.EnergyJ - 1
}

// Resilience runs both applications on a 4-device V100 cluster twice — once
// fault-free and once under a seeded fault plan with transient kernel
// faults, a thermal-throttle window and one permanent mid-campaign device
// loss — and reports the measured cost of surviving: extra wall time, extra
// energy, and where it went (retries, backoff, checkpoints, wasted work).
// This extends the paper's time/energy trade-off to the failure conditions
// any campaign at EXSCALATE scale actually runs under.
func (c Config) Resilience() ([]ResilienceRow, error) {
	const devices = 4
	in := ligen.Input{Ligands: 16384, Atoms: 63, Fragments: 8}
	grid := [3]int{160, 64, 64}
	// Device 2 dies early enough to hit both campaigns (a LiGen shard is 3
	// submissions, a Cronos step is 4); device 0 spends a stretch of each
	// campaign thermally throttled.
	plan := faults.Plan{
		Seed:          c.Seed + 1,
		TransientProb: 0.01,
		Failures:      []faults.DeviceFailure{{Device: 2, AfterSubmits: 9}},
		Throttles:     []faults.Throttle{{Device: 0, FromSubmit: 4, ToSubmit: 12, CapMHz: 1005}},
	}

	// Each campaign gets a fresh identically seeded cluster, so the device
	// loss hits every campaign at the same point and the four runs (two apps
	// × clean/faulty) are independent — they fan out on the config's pool.
	runOne := func(app string, p faults.Plan, o *obs.Observer) (cluster.Result, error) {
		cl, err := cluster.New(c.Seed, gpusim.V100Spec(), devices, cluster.DefaultInterconnect())
		if err != nil {
			return cluster.Result{}, err
		}
		if err := cl.SetFaultPlan(p, cluster.DefaultResilienceConfig()); err != nil {
			return cluster.Result{}, err
		}
		cl.SetObserver(o)
		if app == "ligen" {
			return cl.ScreenLiGen(in)
		}
		return cl.RunCronos(grid[0], grid[1], grid[2], c.CronosSteps)
	}
	campaigns := []struct {
		app  string
		plan faults.Plan
	}{
		{"ligen", faults.Plan{}}, {"cronos", faults.Plan{}},
		{"ligen", plan}, {"cronos", plan},
	}
	forks := c.Obs.ForkN(len(campaigns))
	results, err := parallel.Map(len(campaigns), c.Jobs, func(i int) (cluster.Result, error) {
		return runOne(campaigns[i].app, campaigns[i].plan, forks[i])
	})
	if err != nil {
		return nil, err
	}
	c.Obs.AbsorbAll(forks)
	return []ResilienceRow{
		{App: "ligen", FaultFree: results[0], Faulty: results[2]},
		{App: "cronos", FaultFree: results[1], Faulty: results[3]},
	}, nil
}

// RenderResilience runs and prints the resilience study.
func (c Config) RenderResilience(w io.Writer) error {
	rows, err := c.Resilience()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== resilience: cost of surviving faults (4x V100) ==")
	for _, r := range rows {
		fmt.Fprintf(w, "%s:\n", r.App)
		fmt.Fprintf(w, "   fault-free: %.3f s, %.1f J\n", r.FaultFree.TimeS, r.FaultFree.EnergyJ)
		fmt.Fprintf(w, "   faulty:     %.3f s, %.1f J  (%+.1f%% time, %+.1f%% energy)\n",
			r.Faulty.TimeS, r.Faulty.EnergyJ, r.TimeOverhead()*100, r.EnergyOverhead()*100)
		fmt.Fprintf(w, "   recovery:   %d retries, %d failovers, %d/%d devices survived\n",
			r.Faulty.Retries, r.Faulty.Failovers, r.Faulty.SurvivingDevices, len(r.Faulty.PerDevice))
		fmt.Fprintf(w, "   overheads:  wasted %.3f s / %.1f J, backoff %.3f s, checkpoint %.3f s\n",
			r.Faulty.WastedTimeS, r.Faulty.WastedEnergyJ, r.Faulty.BackoffTimeS, r.Faulty.CheckpointTimeS)
	}
	return nil
}
