package workload

import (
	"fmt"
	"math"

	"v10/internal/mathx"
	"v10/internal/npu"
)

// MaxArrivalsPerTenant guards against runaway schedules (a mis-set rate
// times a long horizon). One tenant offering two million requests in a
// single run is far beyond anything the fleet can serve; hitting the cap is
// a config error, not a legitimate workload. The fleet's Poisson front end
// applies the same cap.
const MaxArrivalsPerTenant = 2_000_000

// Engine turns per-tenant Specs into absolute arrival-cycle schedules over a
// fixed horizon. The zero Config means npu.DefaultConfig (the clock converts
// RateHz and trace gaps in seconds into cycles).
//
// Determinism: tenant t's schedule is a pure function of (Seed, t, its Spec,
// HorizonCycles, the clock) — independent of how many other tenants exist
// and of any parallelism in the caller. Same inputs, bit-identical output.
type Engine struct {
	Config        npu.CoreConfig
	HorizonCycles int64
	Seed          uint64
}

// Schedule generates tenant's arrival schedule for spec: strictly
// nondecreasing absolute cycles in [spec.StartCycle, min(spec.EndCycle,
// horizon)), ready for sched.Options.ArrivalCycles.
func (e Engine) Schedule(tenant int, spec Spec) ([]int64, error) {
	cfg := e.Config
	if cfg.SADim == 0 {
		cfg = npu.DefaultConfig()
	}
	if e.HorizonCycles < 1 {
		return nil, fmt.Errorf("workload: non-positive horizon %d", e.HorizonCycles)
	}
	spec = spec.withDefaults(e.HorizonCycles)
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("workload: tenant %d: %w", tenant, err)
	}
	// The tenant stride must NOT be splitmix64's gamma (0x9e3779b97f4a7c15):
	// that would place consecutive tenants one draw apart on the same
	// underlying counter sequence, correlating their streams almost exactly.
	rng := mathx.NewRNG(e.Seed + 0x7ea4f1c + uint64(tenant)*0xd1342543de82ef95)
	g := &gen{rng: rng, start: spec.StartCycle, end: spec.EndCycle}

	var err error
	switch spec.Process {
	case Poisson:
		err = g.poisson(cfg.FrequencyHz / spec.RateHz)
	case Uniform:
		err = g.uniform(cfg.FrequencyHz / spec.RateHz)
	case Diurnal:
		err = g.diurnal(spec.RateHz/cfg.FrequencyHz, spec.Amplitude, float64(spec.PeriodCycles), spec.PhaseFrac)
	case MMPP:
		err = g.mmpp(spec.RateHz/cfg.FrequencyHz, spec.BurstFactor, spec.BurstFrac, float64(spec.BurstDwellCycles))
	case Replay:
		err = g.replay(spec.GapsSec, spec.RateHz, cfg.FrequencyHz)
	}
	if err != nil {
		return nil, fmt.Errorf("workload: tenant %d: %w", tenant, err)
	}
	if g.out == nil {
		g.out = []int64{}
	}
	return g.out, nil
}

// Schedules generates one schedule per spec; index i is tenant i.
func (e Engine) Schedules(specs []Spec) ([][]int64, error) {
	out := make([][]int64, len(specs))
	for t, spec := range specs {
		sc, err := e.Schedule(t, spec)
		if err != nil {
			return nil, err
		}
		out[t] = sc
	}
	return out, nil
}

// gen accumulates one tenant's arrival stream in float64 absolute time.
// Emitting floor(t) — never truncating individual gaps and never clamping —
// keeps the realized rate equal to the nominal rate: the number of arrivals
// before an integer horizon equals the number of real-valued arrival times
// before it.
type gen struct {
	rng        *mathx.RNG
	start, end int64
	out        []int64
}

// emit records one arrival at real-valued time t (absolute cycles).
func (g *gen) emit(t float64) error {
	if len(g.out) >= MaxArrivalsPerTenant {
		return fmt.Errorf("schedule exceeds %d arrivals — rate × horizon is misconfigured", MaxArrivalsPerTenant)
	}
	g.out = append(g.out, int64(t))
	return nil
}

// exp draws a unit-mean exponential sample.
func (g *gen) exp() float64 {
	u := g.rng.Float64()
	for u == 0 {
		u = g.rng.Float64()
	}
	return -math.Log(u)
}

func (g *gen) poisson(meanGap float64) error {
	t := float64(g.start)
	for {
		// float64(...) rounds the product, so no architecture fuses a multiply-add.
		t += float64(meanGap * g.exp())
		if t >= float64(g.end) {
			return nil
		}
		if err := g.emit(t); err != nil {
			return err
		}
	}
}

func (g *gen) uniform(gap float64) error {
	t := float64(g.start) + gap
	for ; t < float64(g.end); t += gap {
		if err := g.emit(t); err != nil {
			return err
		}
	}
	return nil
}

// diurnal generates an inhomogeneous Poisson stream by thinning: candidates
// arrive at the peak rate and are accepted with probability rate(t)/peak.
// rate is the mean rate in arrivals per cycle.
func (g *gen) diurnal(rate, amp, period, phase float64) error {
	peak := rate * (1 + amp)
	t := float64(g.start)
	for {
		t += g.exp() / peak
		if t >= float64(g.end) {
			return nil
		}
		// float64(...) rounds the product, so no architecture fuses a multiply-add.
		r := rate * (1 + float64(amp*math.Cos(2*math.Pi*(t-float64(phase*period))/period)))
		if g.rng.Float64()*peak < r {
			if err := g.emit(t); err != nil {
				return err
			}
		}
	}
}

// mmpp simulates the 2-state chain exactly: exponential dwells, Poisson
// arrivals at the current state's rate, memoryless redraw at each switch.
// rate is the long-run mean in arrivals per cycle; solving
// r0·(1−f) + B·r0·f = rate pins the baseline rate r0.
func (g *gen) mmpp(rate, burstFactor, burstFrac, burstDwell float64) error {
	// float64(...) rounds the product, so no architecture fuses a multiply-add.
	r0 := rate / (1 - burstFrac + float64(burstFactor*burstFrac))
	r1 := burstFactor * r0
	baseDwell := burstDwell * (1 - burstFrac) / burstFrac

	burst := g.rng.Float64() < burstFrac // start in the stationary mix
	t := float64(g.start)
	dwell := baseDwell
	if burst {
		dwell = burstDwell
	}
	// float64(...) rounds the product, so no architecture fuses a multiply-add.
	switchAt := t + float64(dwell*g.exp())
	for {
		r := r0
		if burst {
			r = r1
		}
		next := t + g.exp()/r
		if next >= switchAt {
			// The state flips before the drawn arrival lands; by memorylessness
			// the arrival clock simply restarts in the new state.
			t = switchAt
			burst = !burst
			dwell = baseDwell
			if burst {
				dwell = burstDwell
			}
			// float64(...) rounds the product, so no architecture fuses a multiply-add.
			switchAt = t + float64(dwell*g.exp())
			if t >= float64(g.end) {
				return nil
			}
			continue
		}
		t = next
		if t >= float64(g.end) {
			return nil
		}
		if err := g.emit(t); err != nil {
			return err
		}
	}
}

// replay cycles through the recorded gaps (seconds → cycles via the clock),
// optionally rescaled so the realized mean rate is targetHz. Each tenant
// starts at a seeded rotation of the gap stream so tenants replaying the
// same trace do not arrive in lockstep.
func (g *gen) replay(gapsSec []float64, targetHz, freqHz float64) error {
	var sum float64
	for _, gap := range gapsSec {
		sum += gap
	}
	scale := freqHz // seconds → cycles
	if targetHz > 0 {
		// Normalize: the trace's native mean gap is sum/len seconds; the
		// target mean gap is 1/targetHz. Scale so they coincide.
		native := sum / float64(len(gapsSec))
		scale *= 1 / (targetHz * native)
	}
	i := g.rng.Intn(len(gapsSec))
	t := float64(g.start)
	for {
		// float64(...) rounds the product, so no architecture fuses a multiply-add.
		t += float64(gapsSec[i] * scale)
		i++
		if i == len(gapsSec) {
			i = 0
		}
		if t >= float64(g.end) {
			return nil
		}
		if err := g.emit(t); err != nil {
			return err
		}
	}
}
