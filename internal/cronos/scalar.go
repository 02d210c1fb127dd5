package cronos

import (
	"fmt"
	"math"

	"dsenergy/internal/parallel"
)

// User-provided conservation laws: the paper notes that Cronos "allows the
// solver to be used for other conservation laws that can be provided by the
// user". This file implements that capability for scalar laws
// ∂u/∂t + ∇·F(u) = 0 on the same 3-D mesh, with the same building blocks as
// the MHD solver: MUSCL/minmod reconstruction, a local Lax-Friedrichs
// numerical flux, SSP-RK3 substeps, CFL-driven timesteps, and goroutine slab
// parallelism.

// ScalarLaw is a user-provided scalar conservation law: the physical flux
// per direction and the characteristic speed bounding it.
type ScalarLaw interface {
	// Flux returns F_d(u) for direction d (0=x, 1=y, 2=z).
	Flux(u float64, dir int) float64
	// MaxSpeed returns an upper bound on |F_d'(u)| for the CFL condition
	// and the Lax-Friedrichs dissipation.
	MaxSpeed(u float64, dir int) float64
}

// AdvectionLaw is linear advection with velocity V — the canonical smoke
// test (exact solution: translation).
type AdvectionLaw struct {
	V [3]float64
}

// Flux implements ScalarLaw.
func (l AdvectionLaw) Flux(u float64, dir int) float64 { return l.V[dir] * u }

// MaxSpeed implements ScalarLaw.
func (l AdvectionLaw) MaxSpeed(_ float64, dir int) float64 { return math.Abs(l.V[dir]) }

// BurgersLaw is the inviscid Burgers equation along x (F = u²/2), the
// canonical nonlinear law that steepens smooth data into shocks.
type BurgersLaw struct{}

// Flux implements ScalarLaw.
func (BurgersLaw) Flux(u float64, dir int) float64 {
	if dir == 0 {
		return 0.5 * u * u
	}
	return 0
}

// MaxSpeed implements ScalarLaw.
func (BurgersLaw) MaxSpeed(u float64, dir int) float64 {
	if dir == 0 {
		return math.Abs(u)
	}
	return 0
}

// ScalarSolver advances a user-provided scalar conservation law.
type ScalarSolver struct {
	Law        ScalarLaw
	NX, NY, NZ int
	DX, DY, DZ float64
	Boundary   Boundary
	CFL        float64
	Workers    int

	Time     float64
	DT       float64
	StepsRun int

	u       []float64 // state with ghosts
	u0      []float64
	changes []float64
	sx, sy  int
}

// NewScalarSolver builds a solver on an nx×ny×nz unit-x-length mesh.
func NewScalarSolver(law ScalarLaw, nx, ny, nz int, b Boundary) (*ScalarSolver, error) {
	if law == nil {
		return nil, fmt.Errorf("cronos: nil conservation law")
	}
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("cronos: invalid scalar grid %dx%dx%d", nx, ny, nz)
	}
	sx, sy, sz := nx+2*Ghost, ny+2*Ghost, nz+2*Ghost
	n := sx * sy * sz
	return &ScalarSolver{
		Law: law, NX: nx, NY: ny, NZ: nz,
		DX: 1.0 / float64(nx), DY: 1.0 / float64(nx), DZ: 1.0 / float64(nx),
		Boundary: b, CFL: 0.4, Workers: parallel.Workers(0),
		DT: 1e-4,
		u:  make([]float64, n), u0: make([]float64, n), changes: make([]float64, n),
		sx: sx, sy: sy,
	}, nil
}

// Idx flattens interior coordinates (ghosts via negative/overflow indices).
func (s *ScalarSolver) Idx(i, j, k int) int {
	return ((k+Ghost)*s.sy+(j+Ghost))*s.sx + (i + Ghost)
}

// At returns the state at interior coordinates.
func (s *ScalarSolver) At(i, j, k int) float64 { return s.u[s.Idx(i, j, k)] }

// Set assigns the state at interior coordinates.
func (s *ScalarSolver) Set(i, j, k int, v float64) { s.u[s.Idx(i, j, k)] = v }

// Init fills the state from a function of cell-center coordinates.
func (s *ScalarSolver) Init(f func(x, y, z float64) float64) {
	for k := 0; k < s.NZ; k++ {
		z := (float64(k) + 0.5) * s.DZ
		for j := 0; j < s.NY; j++ {
			y := (float64(j) + 0.5) * s.DY
			for i := 0; i < s.NX; i++ {
				x := (float64(i) + 0.5) * s.DX
				s.Set(i, j, k, f(x, y, z))
			}
		}
	}
	s.applyBoundary()
}

// Total integrates the conserved quantity over the interior.
func (s *ScalarSolver) Total() float64 {
	var sum float64
	for k := 0; k < s.NZ; k++ {
		for j := 0; j < s.NY; j++ {
			row := s.Idx(0, j, k)
			for i := 0; i < s.NX; i++ {
				sum += s.u[row+i]
			}
		}
	}
	return sum * s.DX * s.DY * s.DZ
}

func (s *ScalarSolver) applyBoundary() {
	for k := -Ghost; k < s.NZ+Ghost; k++ {
		for j := -Ghost; j < s.NY+Ghost; j++ {
			for l := 1; l <= Ghost; l++ {
				if s.Boundary == Periodic {
					s.u[s.Idx(-l, j, k)] = s.u[s.Idx(s.NX-l, j, k)]
					s.u[s.Idx(s.NX+l-1, j, k)] = s.u[s.Idx(l-1, j, k)]
				} else {
					s.u[s.Idx(-l, j, k)] = s.u[s.Idx(0, j, k)]
					s.u[s.Idx(s.NX+l-1, j, k)] = s.u[s.Idx(s.NX-1, j, k)]
				}
			}
		}
	}
	for k := -Ghost; k < s.NZ+Ghost; k++ {
		for i := -Ghost; i < s.NX+Ghost; i++ {
			for l := 1; l <= Ghost; l++ {
				if s.Boundary == Periodic {
					s.u[s.Idx(i, -l, k)] = s.u[s.Idx(i, s.NY-l, k)]
					s.u[s.Idx(i, s.NY+l-1, k)] = s.u[s.Idx(i, l-1, k)]
				} else {
					s.u[s.Idx(i, -l, k)] = s.u[s.Idx(i, 0, k)]
					s.u[s.Idx(i, s.NY+l-1, k)] = s.u[s.Idx(i, s.NY-1, k)]
				}
			}
		}
	}
	for j := -Ghost; j < s.NY+Ghost; j++ {
		for i := -Ghost; i < s.NX+Ghost; i++ {
			for l := 1; l <= Ghost; l++ {
				if s.Boundary == Periodic {
					s.u[s.Idx(i, j, -l)] = s.u[s.Idx(i, j, s.NZ-l)]
					s.u[s.Idx(i, j, s.NZ+l-1)] = s.u[s.Idx(i, j, l-1)]
				} else {
					s.u[s.Idx(i, j, -l)] = s.u[s.Idx(i, j, 0)]
					s.u[s.Idx(i, j, s.NZ+l-1)] = s.u[s.Idx(i, j, s.NZ-1)]
				}
			}
		}
	}
}

// computeChanges evaluates -∇·F into changes and returns the global CFL
// value, parallel over z-slabs.
func (s *ScalarSolver) computeChanges() float64 {
	for i := range s.changes {
		s.changes[i] = 0
	}
	w := min(max(s.Workers, 1), s.NZ)
	grain := (s.NZ + w - 1) / w
	cfls := make([]float64, w)
	_ = parallel.ForEachChunked(s.NZ, w, grain, func(lo, hi int) error { // never fails
		cfls[lo/grain] = s.slabChanges(lo, hi)
		return nil
	})
	var cfl float64
	for _, v := range cfls {
		if v > cfl {
			cfl = v
		}
	}
	return cfl
}

// slabChanges processes z-planes [kLo,kHi); x/y faces are plane-local and
// z faces only read (never write) the neighbour planes, so slabs are
// data-race free.
func (s *ScalarSolver) slabChanges(kLo, kHi int) float64 {
	var cfl float64
	dxs := [3]float64{s.DX, s.DY, s.DZ}
	for k := kLo; k < kHi; k++ {
		for j := 0; j < s.NY; j++ {
			for i := 0; i < s.NX; i++ {
				idx := s.Idx(i, j, k)
				u := s.u[idx]
				var c float64
				for d := 0; d < 3; d++ {
					c += s.Law.MaxSpeed(u, d) / dxs[d]
				}
				if c > cfl {
					cfl = c
				}
				// Flux difference per direction with LLF fluxes at both
				// faces of this cell.
				for d := 0; d < 3; d++ {
					fp := s.faceFlux(i, j, k, d, +1)
					fm := s.faceFlux(i, j, k, d, -1)
					s.changes[idx] -= (fp - fm) / dxs[d]
				}
			}
		}
	}
	return cfl
}

// neighbor returns the state offset by o cells along dir from (i,j,k).
func (s *ScalarSolver) neighbor(i, j, k, dir, o int) float64 {
	switch dir {
	case 0:
		return s.u[s.Idx(i+o, j, k)]
	case 1:
		return s.u[s.Idx(i, j+o, k)]
	default:
		return s.u[s.Idx(i, j, k+o)]
	}
}

// faceFlux computes the local Lax-Friedrichs flux at the +side/-side face of
// cell (i,j,k) along dir, with minmod-limited MUSCL reconstruction.
func (s *ScalarSolver) faceFlux(i, j, k, dir, side int) float64 {
	// Face between cell c (left) and c+1 (right) along dir; for side=-1 the
	// face between c-1 and c.
	base := 0
	if side < 0 {
		base = -1
	}
	um1 := s.neighbor(i, j, k, dir, base-1)
	u0 := s.neighbor(i, j, k, dir, base)
	u1 := s.neighbor(i, j, k, dir, base+1)
	u2 := s.neighbor(i, j, k, dir, base+2)
	left := u0 + 0.5*minmod(u0-um1, u1-u0)
	right := u1 - 0.5*minmod(u1-u0, u2-u1)
	a := math.Max(s.Law.MaxSpeed(left, dir), s.Law.MaxSpeed(right, dir))
	return 0.5*(s.Law.Flux(left, dir)+s.Law.Flux(right, dir)) - 0.5*a*(right-left)
}

// Step advances one SSP-RK3 timestep.
func (s *ScalarSolver) Step() {
	copy(s.u0, s.u)
	var cflMax float64
	coeffs := [3][3]float64{{1, 0, 1}, {0.75, 0.25, 0.25}, {1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0}}
	for sub := 0; sub < 3; sub++ {
		cfl := s.computeChanges()
		if cfl > cflMax {
			cflMax = cfl
		}
		a0, a1, b := coeffs[sub][0], coeffs[sub][1], coeffs[sub][2]
		for idx := range s.u {
			s.u[idx] = a0*s.u0[idx] + a1*s.u[idx] + b*s.DT*s.changes[idx]
		}
		s.applyBoundary()
	}
	s.Time += s.DT
	s.StepsRun++
	if cflMax > 0 {
		next := s.CFL / cflMax
		if next > 1.1*s.DT && s.StepsRun > 1 {
			next = 1.1 * s.DT
		}
		s.DT = next
	}
}

// Run advances until endTime (or maxSteps when positive).
func (s *ScalarSolver) Run(endTime float64, maxSteps int) error {
	for s.Time < endTime {
		if maxSteps > 0 && s.StepsRun >= maxSteps {
			break
		}
		if s.Time+s.DT > endTime {
			s.DT = endTime - s.Time
		}
		s.Step()
		for _, v := range s.u {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("cronos: scalar solver diverged at t=%g", s.Time)
			}
		}
	}
	return nil
}
