package gpusim

import (
	"math"

	"dsenergy/internal/kernels"
)

// Breakdown exposes the intermediate quantities of the analytical model for
// one execution. It is returned by AnalyzeAt for inspection, debugging and
// white-box tests; Analytic returns only the externally observable Result.
type Breakdown struct {
	FreqGHz      float64 // core frequency used
	VoltageV     float64 // operating voltage at that frequency
	Utilization  float64 // fraction of resident-item capacity in use
	ComputeTimeS float64 // per-launch time under the compute roof
	MemTimeS     float64 // per-launch time under the memory roof
	OverheadS    float64 // per-launch enqueue/dispatch overhead
	MemBound     bool    // whether the memory roof dominates
	DRAMBytes    float64 // effective DRAM traffic per launch after caching
	AchievedGBs  float64 // realized DRAM bandwidth
	ActivityComp float64 // ALU duty cycle (drives dynamic power)
	IdleW        float64
	LeakW        float64
	DynW         float64
	MemW         float64
	TotalPowerW  float64
	TimeS        float64 // total wall time, all launches
	EnergyJ      float64
}

// voltageAt returns the operating voltage of the V/f curve at freq (MHz).
func (s *Spec) voltageAt(mhz int) float64 {
	fmax := float64(s.FMaxMHz())
	knee := s.VKnee * fmax
	f := float64(mhz)
	if f <= knee {
		return s.VMin
	}
	x := (f - knee) / (fmax - knee)
	return s.VMin + (s.VMax-s.VMin)*math.Pow(x, s.VExp)
}

// bwFactorAt returns the fraction of the achieved bandwidth available at the
// given core frequency: below the bandwidth knee the cores cannot issue
// enough outstanding requests to keep DRAM busy.
func (s *Spec) bwFactorAt(mhz int) float64 {
	fr := float64(mhz) / float64(s.FMaxMHz())
	if fr >= s.BWKnee {
		return 1
	}
	return math.Pow(fr/s.BWKnee, s.BWKneeExp)
}

// dramTraffic returns the effective DRAM bytes of one launch after the cache
// model: a fraction CacheReuse of the raw accesses hits cache while the
// working set fits in the LLC; as the working set grows past the LLC the
// reused fraction progressively spills back to DRAM.
func (s *Spec) dramTraffic(p *kernels.Profile) float64 {
	// Inline Profile.RawGlobalBytes (same expression): calling the value
	// receiver through the pointer would copy the whole Profile per call.
	raw := p.Mix.GlobalBytes() * p.WorkItems
	miss := 1 - p.CacheReuse
	if p.WorkingSetBytes > s.LLCBytes && p.WorkingSetBytes > 0 {
		spill := 1 - s.LLCBytes/p.WorkingSetBytes
		miss += p.CacheReuse * spill
	}
	return raw * miss
}

// freqTerms holds the frequency-dependent pure sub-expressions of the
// analytical model at one core frequency. Every field memoizes exactly the
// sub-expression the single-pass evaluation computes — the same operations
// in the same association — so evaluating from a tabulated freqTerms is
// bit-identical to evaluating inline. New tabulates one entry per clock-menu
// position (tables.go); off-menu frequencies compute the terms on the fly.
type freqTerms struct {
	fGHz      float64 // mhz / 1000
	voltageV  float64 // voltageAt(mhz)
	bwFactor  float64 // bwFactorAt(mhz)
	overheadS float64 // LaunchFixedS + LaunchCycles/(f[GHz]·1e9)
	dynPreW   float64 // DynCoeffW · NumCU · V² · f[GHz], awaiting · activity
	clockW    float64 // ClockCoeffW · V² · f[GHz]
	leakW     float64 // LeakCoeffW · V²
}

// freqTermsAt evaluates the frequency-dependent terms directly. This is the
// slow path — two math.Pow calls sit behind voltageAt/bwFactorAt — which is
// precisely why the clock menu is tabulated once per device.
func (s *Spec) freqTermsAt(mhz int) freqTerms {
	fGHz := float64(mhz) / 1000
	v := s.voltageAt(mhz)
	return freqTerms{
		fGHz:      fGHz,
		voltageV:  v,
		bwFactor:  s.bwFactorAt(mhz),
		overheadS: s.LaunchFixedS + s.LaunchCycles/(fGHz*1e9),
		dynPreW:   s.DynCoeffW * float64(s.NumCU) * v * v * fGHz,
		clockW:    s.ClockCoeffW * v * v * fGHz,
		leakW:     s.LeakCoeffW * v * v,
	}
}

// compiledProfile holds the frequency-invariant terms of one kernel profile
// on one device: occupancy, lane allocation, total compute work, effective
// DRAM traffic and the bandwidth-utilization prefactor are all pure in
// (spec, profile), so one compile serves the entire clock menu.
type compiledProfile struct {
	util     float64 // resident-item occupancy, clamped to 1
	aPart    float64 // min(WorkItems, lanes) · ComputeEff, awaiting · f[GHz]·1e9
	cycles   float64 // TotalComputeCycles per launch
	bytes    float64 // effective DRAM bytes per launch after the cache model
	bwPre    float64 // PeakBW·1e9 · MemEff · bwUtil, awaiting · bwFactor
	launches float64
}

// compileInto evaluates the frequency-invariant stage of the model into cp.
func (s *Spec) compileInto(cp *compiledProfile, p *kernels.Profile) {
	// util is the fraction of the device's resident-item capacity occupied
	// by one launch; it throttles both achievable issue rate (indirectly,
	// through parallelism) and dynamic power.
	util := p.WorkItems / s.ConcurrentItems
	if util > 1 {
		util = 1
	}
	// Effective parallel lanes: a launch cannot use more lanes than it has
	// work items. The builtin min matches math.Min bit-for-bit (NaN
	// propagation, -0 below +0) and compiles to a bare vminsd.
	lanes := float64(s.NumCU * s.LanesPerCU)
	activeLanes := min(p.WorkItems, lanes)
	bwUtil := p.WorkItems / s.BWSaturateItems
	if bwUtil > 1 {
		bwUtil = 1
	}
	minUtil := s.BWMinUtil
	if minUtil == 0 {
		minUtil = 0.02
	}
	if bwUtil < minUtil {
		bwUtil = minUtil
	}
	cp.util = util
	cp.aPart = activeLanes * s.ComputeEff
	// Inline Profile.TotalComputeCycles (same expression, same receiver-copy
	// rationale as in dramTraffic).
	cp.cycles = p.Mix.ComputeCycles() * p.WorkItems
	cp.bytes = s.dramTraffic(p)
	cp.bwPre = s.PeakBWGBs * 1e9 * s.MemEff * bwUtil
	cp.launches = p.Launches
}

// evalInto is the per-frequency tail of the model: roughly twenty floating
// point operations combining one compiled profile with one set of frequency
// terms, written into out (the out-parameter keeps Breakdown copies off the
// hot path). The operation order reproduces the original single-pass
// evaluation exactly — the staged factors above are left-associated prefixes
// of the original expressions — so every Breakdown field is bit-identical to
// the unstaged computation (TestGoldenAnalytic pins this).
func (s *Spec) evalInto(out *Breakdown, cp *compiledProfile, ft *freqTerms) {
	// --- Compute roof -------------------------------------------------------
	issueRate := cp.aPart * ft.fGHz * 1e9 // lane-cycles/s
	tComp := cp.cycles / issueRate

	// --- Memory roof --------------------------------------------------------
	bw := cp.bwPre * ft.bwFactor
	var tMem float64
	if cp.bytes > 0 {
		tMem = cp.bytes / bw
	}

	// --- Launch composition --------------------------------------------------
	tLaunch := max(tComp, tMem) + ft.overheadS
	total := tLaunch * cp.launches

	// --- Power ---------------------------------------------------------------
	// The ALUs are busy only for the compute fraction of each launch.
	duty := 1.0
	if tMem > tComp && tLaunch > 0 {
		duty = (tComp + ft.overheadS*0.1) / tLaunch
	}
	act := cp.util * duty
	dynW := ft.dynPreW * act
	// Clock-tree and uncore switching power is paid chip-wide whenever a
	// kernel is resident, regardless of occupancy; on real boards this is
	// what separates busy-idle from deep-idle power.
	dynW += ft.clockW
	achievedGBs := 0.0
	if tLaunch > 0 {
		achievedGBs = cp.bytes / tLaunch / 1e9
	}
	memW := s.MemCoeffWGBs * achievedGBs
	powerW := s.IdleW + ft.leakW + dynW + memW

	// Field stores, not a composite literal: out never aliases cp/ft, and
	// direct stores keep the 136-byte struct from bouncing through a
	// zeroed temporary.
	out.FreqGHz = ft.fGHz
	out.VoltageV = ft.voltageV
	out.Utilization = cp.util
	out.ComputeTimeS = tComp
	out.MemTimeS = tMem
	out.OverheadS = ft.overheadS
	out.MemBound = tMem > tComp
	out.DRAMBytes = cp.bytes
	out.AchievedGBs = achievedGBs
	out.ActivityComp = act
	out.IdleW = s.IdleW
	out.LeakW = ft.leakW
	out.DynW = dynW
	out.MemW = memW
	out.TotalPowerW = powerW
	out.TimeS = total
	out.EnergyJ = powerW * total
}

// AnalyzeAt evaluates the noiseless analytical model for profile p at the
// given core frequency: compile the profile, then evaluate it at mhz.
func (d *Device) AnalyzeAt(p kernels.Profile, mhz int) (b Breakdown) {
	var cp compiledProfile
	d.spec.compileInto(&cp, &p)
	d.evalFreqInto(&b, &cp, mhz)
	return b
}

// AnalyzeCurve evaluates the model for p at every frequency in freqs,
// compiling the profile once for the whole batch. Each returned Breakdown is
// bit-identical to AnalyzeAt(p, freqs[i]).
func (d *Device) AnalyzeCurve(p kernels.Profile, freqs []int) []Breakdown {
	out := make([]Breakdown, len(freqs))
	var cp compiledProfile
	d.spec.compileInto(&cp, &p)
	for i, f := range freqs {
		d.evalFreqInto(&out[i], &cp, f)
	}
	return out
}

// evalFreqInto evaluates one compiled profile at mhz: against the tabulated
// frequency terms in place when mhz is on the clock menu, against directly
// computed terms otherwise.
func (d *Device) evalFreqInto(out *Breakdown, cp *compiledProfile, mhz int) {
	if i, ok := d.tables.menuIndex(mhz); ok {
		d.spec.evalInto(out, cp, &d.tables.terms[i])
		return
	}
	ft := d.spec.freqTermsAt(mhz)
	d.spec.evalInto(out, cp, &ft)
}

// Analytic returns the noiseless (time, energy) prediction of the model for
// profile p at the given frequency.
func (d *Device) Analytic(p kernels.Profile, mhz int) Result {
	b := d.AnalyzeAt(p, mhz)
	return Result{TimeS: b.TimeS, EnergyJ: b.EnergyJ, AvgPowerW: b.TotalPowerW}
}

// DefaultNoiseSigma is the relative standard deviation of the multiplicative
// measurement noise applied to simulated observations. It corresponds to the
// run-to-run variability of wall-clock and energy-counter readings on real
// hardware (below one percent on an otherwise idle node).
const DefaultNoiseSigma = 0.006

// NoiseModel perturbs analytic results with multiplicative Gaussian noise,
// standing in for the measurement variability the paper averages away by
// repeating every experiment five times.
type NoiseModel struct {
	Sigma float64
	rng   interface{ Norm() float64 }
}

// NewNoiseModel returns a noise model with relative level sigma drawing
// variates from rng.
func NewNoiseModel(sigma float64, rng interface{ Norm() float64 }) *NoiseModel {
	return &NoiseModel{Sigma: sigma, rng: rng}
}

// Perturb applies independent multiplicative noise to time and energy.
func (n *NoiseModel) Perturb(r Result) Result {
	if n.Sigma == 0 {
		return r
	}
	r.TimeS *= 1 + n.Sigma*n.rng.Norm()
	r.EnergyJ *= 1 + n.Sigma*n.rng.Norm()
	if r.TimeS <= 0 {
		r.TimeS = 1e-12
	}
	if r.EnergyJ <= 0 {
		r.EnergyJ = 1e-12
	}
	r.AvgPowerW = r.EnergyJ / r.TimeS
	return r
}
