package tune

import (
	"math"

	"v10/internal/mathx"
)

// knobSpec is one dimension of the search space: its JSON name, legal
// closed range, and how the search maps it to and from the normalized
// [0, 1] coordinate the genetic operators work in. Log-scaled knobs
// normalize in log space so a fixed mutation step is a fixed *ratio*;
// integer knobs round on denormalization so every candidate is realizable.
type knobSpec struct {
	name     string
	min, max float64
	log      bool // normalize in log space
	integer  bool // round to integer on denormalization
	get      func(*Knobs) float64
	set      func(*Knobs, float64)
}

// knobSpecs is the search space, in Knobs declaration order. The ranges
// bracket each default by enough to matter but stay inside the regimes the
// stack validates (PreemptMargin >= 1, SlowdownLimit >= 1.5, occupancies in
// (0, 1)).
var knobSpecs = []knobSpec{
	{
		name: "quantum_cycles", min: 4096, max: 262144, log: true, integer: true,
		get: func(k *Knobs) float64 { return float64(k.QuantumCycles) },
		set: func(k *Knobs, v float64) { k.QuantumCycles = int64(v) },
	},
	{
		name: "preempt_margin", min: 1.0, max: 3.0,
		get: func(k *Knobs) float64 { return k.PreemptMargin },
		set: func(k *Knobs, v float64) { k.PreemptMargin = v },
	},
	{
		name: "priority_exponent", min: -0.5, max: 1.0,
		get: func(k *Knobs) float64 { return k.PriorityExponent },
		set: func(k *Knobs, v float64) { k.PriorityExponent = v },
	},
	{
		name: "queue_limit", min: 2, max: 32, integer: true,
		get: func(k *Knobs) float64 { return float64(k.QueueLimit) },
		set: func(k *Knobs, v float64) { k.QueueLimit = int(v) },
	},
	{
		name: "collocation_threshold", min: 1.0, max: 1.6,
		get: func(k *Knobs) float64 { return k.CollocationThreshold },
		set: func(k *Knobs, v float64) { k.CollocationThreshold = v },
	},
	{
		name: "migration_backoff_cycles", min: 50_000, max: 2_000_000, log: true, integer: true,
		get: func(k *Knobs) float64 { return float64(k.MigrationBackoffCycles) },
		set: func(k *Knobs, v float64) { k.MigrationBackoffCycles = int64(v) },
	},
	{
		name: "cooldown_intervals", min: 1, max: 6, integer: true,
		get: func(k *Knobs) float64 { return float64(k.CooldownIntervals) },
		set: func(k *Knobs, v float64) { k.CooldownIntervals = int(v) },
	},
	{
		name: "slowdown_limit", min: 1.5, max: 8,
		get: func(k *Knobs) float64 { return k.SlowdownLimit },
		set: func(k *Knobs, v float64) { k.SlowdownLimit = v },
	},
	{
		name: "drain_occupancy", min: 0.05, max: 0.9,
		get: func(k *Knobs) float64 { return k.DrainOccupancy },
		set: func(k *Knobs, v float64) { k.DrainOccupancy = v },
	},
}

// norm maps a raw knob value into the spec's [0, 1] coordinate.
func (s *knobSpec) norm(v float64) float64 {
	lo, hi := s.min, s.max
	if s.log {
		return (math.Log(v) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
	}
	return (v - lo) / (hi - lo)
}

// denorm maps a [0, 1] coordinate back to a raw, clamped, realizable value.
func (s *knobSpec) denorm(u float64) float64 {
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	var v float64
	if s.log {
		// float64(...) rounds the product, so no architecture fuses a multiply-add.
		v = math.Exp(math.Log(s.min) + float64(u*(math.Log(s.max)-math.Log(s.min))))
	} else {
		v = s.min + float64(u*(s.max-s.min))
	}
	if s.integer {
		v = math.Round(v)
	}
	if v < s.min {
		v = s.min
	} else if v > s.max {
		v = s.max
	}
	return v
}

// mutationSigma is the Gaussian mutation step in normalized coordinates —
// 15% of each knob's (possibly log-scaled) range.
const mutationSigma = 0.15

// sampleKnobs draws a uniform random point of the search space (uniform in
// each knob's normalized coordinate, so log knobs sample log-uniformly).
func sampleKnobs(rng *mathx.RNG) Knobs {
	var k Knobs
	for i := range knobSpecs {
		s := &knobSpecs[i]
		s.set(&k, s.denorm(rng.Float64()))
	}
	return k
}

// crossover blends two parents per-knob in normalized coordinates: each
// child coordinate is a uniform point on the segment between its parents'
// (BLX-0 blend crossover).
func crossover(a, b Knobs, rng *mathx.RNG) Knobs {
	var child Knobs
	for i := range knobSpecs {
		s := &knobSpecs[i]
		ua, ub := s.norm(s.get(&a)), s.norm(s.get(&b))
		t := rng.Float64()
		// float64(...) rounds the product, so no architecture fuses a multiply-add.
		s.set(&child, s.denorm(ua+float64(t*(ub-ua))))
	}
	return child
}

// mutateKnobs perturbs each knob with probability pMut by a Gaussian step of
// mutationSigma in normalized coordinates, clamping to the legal range.
func mutateKnobs(k Knobs, rng *mathx.RNG) Knobs {
	const pMut = 0.5
	for i := range knobSpecs {
		s := &knobSpecs[i]
		// Draw both variates unconditionally so the RNG stream consumed per
		// knob is fixed — determinism does not depend on which knobs mutate.
		p, step := rng.Float64(), rng.Norm()
		if p >= pMut {
			continue
		}
		// float64(...) rounds the product, so no architecture fuses a multiply-add.
		s.set(&k, s.denorm(s.norm(s.get(&k))+float64(step*mutationSigma)))
	}
	return k
}
