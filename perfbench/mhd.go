package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"dsenergy/internal/cronos"
	"dsenergy/internal/xrand"
)

const (
	// The paper's 80x32x32 Cronos rung: about 28 MB of solver state, well
	// beyond a server core's L2.
	mhdNX, mhdNY, mhdNZ = 80, 32, 32
	// mhdSteps is the fixed step count of one solve.
	mhdSteps = 10
	// mhdMassTol bounds the relative drift of total mass over a solve under
	// periodic boundaries.
	mhdMassTol = 1e-12
	// mhdGolden is the sha256 of the final state of a solve at the default
	// seed. The determinism contract makes it independent of the worker
	// count.
	mhdGolden = "29435633a9f0bc50c84ec2119de363a7b81ce4c98272d141492d9b836d3373ce"
)

// blastParams draws the blast wave from the seed: ambient pressure in
// [0.05, 0.2], blast pressure in [5, 20] and radius in [0.08, 0.18] of the
// unit x extent (the domain is 1 x 0.4 x 0.4).
func blastParams(seed uint64) (pAmbient, pBlast, radius float64) {
	rng := xrand.New(seed)
	pAmbient = 0.05 + 0.15*rng.Float64()
	pBlast = 5 + 15*rng.Float64()
	radius = 0.08 + 0.10*rng.Float64()
	return pAmbient, pBlast, radius
}

// mhd is the mhd-solve workload: a magnetised blast wave advanced a fixed
// number of steps from the state after a warm-up step, one operation per
// step.
type mhd struct {
	seed  uint64
	s     *cronos.Solver
	start *cronos.Grid // the state after the warm-up step
	time0 float64
	dt0   float64
	runs0 int
	mass0 float64
	buf   []byte // digest scratch, one conserved variable at a time
	first string // digest of the first solve's final state

	newSolverS float64
	stepsS     []float64 // CPU seconds of every timed step, for the p95
}

func setUpMHD(seed uint64, e env) (instance, error) {
	m := &mhd{seed: seed}
	var err error
	i := e.tr.begin("cronos.NewSolver")
	t0 := e.clk.now()
	m.s, err = cronos.NewSolver(cronos.Config{NX: mhdNX, NY: mhdNY, NZ: mhdNZ, Boundary: cronos.Periodic})
	m.newSolverS = e.clk.since(t0)
	e.tr.end(i)
	if err != nil {
		return nil, err
	}
	pa, pb, r := blastParams(seed)
	cronos.InitBlastWave(m.s.Grid, pa, pb, r)
	m.s.Grid.ApplyBoundary(cronos.Periodic)
	m.mass0 = m.s.Grid.TotalMass()
	i = e.tr.begin("cronos.Solver.Step")
	m.s.Step() // warm-up: sizes the workspaces
	e.tr.end(i)
	m.start = m.s.Grid.Clone()
	m.time0, m.dt0, m.runs0 = m.s.Time, m.s.DT, m.s.StepsRun
	m.buf = make([]byte, 8*len(m.s.Grid.U[0]))
	return m, nil
}

func (m *mhd) iterate(e env) (iteration, error) {
	s := m.s
	s.Grid.CopyFrom(m.start)
	s.Time, s.DT, s.StepsRun = m.time0, m.dt0, m.runs0
	flux0 := s.FluxEvals
	it := iteration{ops: mhdSteps, stepsS: make([]float64, 0, mhdSteps)}

	before := sampleHost()
	for k := 0; k < mhdSteps; k++ {
		i := e.tr.begin("cronos.Solver.Step")
		c0 := cpuSeconds()
		s.Step()
		it.stepsS = append(it.stepsS, cpuSeconds()-c0)
		e.tr.end(i)
	}
	allocs := sampleHost().mallocs - before.mallocs
	m.stepsS = append(m.stepsS, it.stepsS...)

	digest := gridDigest(s.Grid, m.buf)
	if m.first == "" {
		m.first = digest
	}
	if gridProblem(s.Grid, m.mass0, digest, m.first) != "" {
		it.failed = mhdSteps
	}
	if e.o != nil || e.tr != nil {
		it.layers = map[string]float64{
			"cronos.step_allocs":         allocs / mhdSteps,
			"cronos.flux_evals_per_step": float64(s.FluxEvals-flux0) / mhdSteps,
		}
	}
	return it, nil
}

// gridProblem checks one solve's final state: finite, with total mass
// conserved, and with the digest of the run's first solve. It returns ""
// when every check holds.
func gridProblem(g *cronos.Grid, mass0 float64, digest, want string) string {
	if !g.IsFinite() {
		return "non-finite state"
	}
	if drift := math.Abs(g.TotalMass()-mass0) / mass0; drift > mhdMassTol {
		return fmt.Sprintf("mass drift %.3g", drift)
	}
	if digest != want {
		return fmt.Sprintf("final state sha256 %s, want %s", digest, want)
	}
	return ""
}

// gridDigest hashes a grid's full state, ghost cells included, bit for
// bit. buf holds 8 bytes per cell of one conserved variable.
func gridDigest(g *cronos.Grid, buf []byte) string {
	h := sha256.New()
	for _, u := range g.U {
		for i, v := range u {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*len(u)])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (m *mhd) runLayers() map[string]float64 {
	l := map[string]float64{"cronos.new_solver_ms": 1000 * m.newSolverS}
	if p95, ok := percentile(m.stepsS, 0.95); ok {
		l["cronos.step_p95_ms"] = 1000 * p95
	} else {
		fmt.Printf("perfbench: mhd-solve: %d steps are too few for a p95\n", len(m.stepsS))
	}
	return l
}

// verify checks the first solve's final state against the golden at the
// default seed; every later solve was checked against the first.
func (m *mhd) verify() []string {
	fmt.Printf("perfbench: mhd-solve final state sha256=%s\n", m.first)
	if m.seed == defaultSeed && m.first != mhdGolden {
		return []string{fmt.Sprintf("final state sha256 %s, golden %s", m.first, mhdGolden)}
	}
	return nil
}
