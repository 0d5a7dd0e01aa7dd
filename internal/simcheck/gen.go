package simcheck

import (
	"fmt"

	"v10/internal/mathx"
	"v10/internal/npu"
)

// maxTrialEvents caps the estimated event count of one generated trial. The
// PREMA worst-case budget can legitimately reach 1e12+ cycles, and with a
// 5000-cycle quantum a closed loop that actually wanders there generates
// billions of rebalance events — a single trial then runs for hours and its
// observation log alone exceeds memory (seed 126 hit 34 GB). Scenarios whose
// cost estimate exceeds the cap are rejected and deterministically resampled;
// at this threshold 33 of seeds 0-2999 (1.1%) are rejected on attempt 0.
const maxTrialEvents = 2e7

// genAttempts bounds the resample loop. At a 1.1% rejection rate the chance
// of exhausting it is (0.011)^32 ≈ 2e-63; if that ever happens we fall back
// to the cheapest scenario seen, which is still deterministic.
const genAttempts = 32

// GenScenario derives a complete random trial from one seed: hardware shape,
// scheduler knobs, and an arbitrary SA/VU operator mix including degenerate
// shapes (zero-compute ops, zero stalls, out-of-range efficiencies), extreme
// priority skews, HBM-bandwidth starvation, and vector-memory pressure that
// forces tiling and context-capacity rejections. The same seed always yields
// the same scenario.
//
// Scenarios whose estimated simulation cost exceeds maxTrialEvents are
// rejected and regenerated from a deterministically mixed stream. Attempt 0
// draws from exactly NewRNG(seed), so every seed whose scenario was already
// affordable is bit-identical to what it produced before resampling existed;
// resampled scenarios keep Seed = seed so repro-by-seed still works.
func GenScenario(seed uint64) *Scenario {
	var best *Scenario
	bestCost := 0.0
	for attempt := uint64(0); attempt < genAttempts; attempt++ {
		s := genScenario(seed, mathx.NewRNG(seed+attempt*0x9e3779b97f4a7c15))
		c := trialCost(s)
		if c <= maxTrialEvents {
			return s
		}
		if best == nil || c < bestCost {
			best, bestCost = s, c
		}
	}
	return best
}

func genScenario(seed uint64, rng *mathx.RNG) *Scenario {
	cfg := npu.DefaultConfig()
	cfg.SADim = pickInt(rng, 8, 32, 128)
	cfg.NumSA = 1 + rng.Intn(3)
	cfg.NumVU = 1 + rng.Intn(3)
	cfg.TimeSlice = pick64(rng, 256, 1024, 8192, 32768)
	cfg.VMemBytes = pick64(rng, 96<<10, 1<<20, 32<<20)
	cfg.HBMBandwidth = pickF(rng, 330e9, 33e9, 3.3e9)

	s := &Scenario{
		Seed:     seed,
		Config:   cfg,
		Requests: 1 + rng.Intn(3),
	}

	nw := 1 + rng.Intn(4)
	partition := cfg.VMemBytes / int64(nw)
	s.Clones = nw >= 2 && rng.Float64() < 0.35

	var cloneOps []OpSpec
	if s.Clones {
		cloneOps = genOps(rng, partition)
	}
	equalPrio := s.Clones || rng.Float64() < 0.6
	for i := 0; i < nw; i++ {
		w := WorkloadSpec{Name: fmt.Sprintf("W%d", i), Priority: 1}
		if !equalPrio {
			w.Priority = pickF(rng, 0.2, 1, 5)
		}
		if s.Clones {
			w.Ops = append([]OpSpec(nil), cloneOps...)
		} else {
			w.Ops = genOps(rng, partition)
		}
		s.Workloads = append(s.Workloads, w)
	}
	balanceDurations(s)

	if rng.Float64() < 0.3 {
		s.DispatchLatency = pick64(rng, 1, 16, 64, 700)
	}
	if rng.Float64() < 0.3 {
		s.PreemptMargin = pickF(rng, 1.0, 3.0)
	}
	s.VMemReloadFactor = pickF(rng, 0.5, 0.5, 0.25, 1.0, 2.0)
	if rng.Float64() < 0.6 {
		s.PMTQuantum = pick64(rng, 5_000, 50_000, 300_000)
	}
	s.PMTPrema = rng.Float64() < 0.5
	s.PMTWeighted = rng.Float64() < 0.3

	openLoop := rng.Float64() < 0.2
	if openLoop {
		// Target ~30% offered load across the tenant set so queues stay
		// stable: rate = 0.3 × clock / total fluid service cycles per round.
		s.ArrivalRateHz = 0.3 * cfg.FrequencyHz / roundServeCycles(s)
		s.Schemes = []string{SchemeBase, SchemeFair, SchemeFull}
	} else {
		s.Schemes = append([]string(nil), AllSchemes...)
	}
	s.MaxCycles = budget(s)
	return s
}

// genOps draws one workload's operator list. partition is the per-tenant
// vector-memory share, used to push some footprints deep into tiling.
func genOps(rng *mathx.RNG, partition int64) []OpSpec {
	n := 1 + rng.Intn(8)
	ops := make([]OpSpec, n)
	for i := range ops {
		op := OpSpec{Kind: "VU"}
		if rng.Float64() < 0.5 {
			op.Kind = "SA"
		}
		switch r := rng.Float64(); {
		case r < 0.10: // degenerate: zero-compute op
		case r < 0.20:
			op.Compute = 1
		case r < 0.40:
			op.Compute = 1 + int64(rng.Intn(64))
		case r < 0.70:
			op.Compute = 100 + int64(rng.Intn(2000))
		default:
			op.Compute = 2000 + int64(rng.Intn(30000))
		}
		switch r := rng.Float64(); {
		case r < 0.40: // zero stall
		case r < 0.60:
			op.Stall = int64(rng.Intn(64))
		case r < 0.85:
			op.Stall = int64(rng.Intn(2000))
		default:
			op.Stall = int64(rng.Intn(20000))
		}
		switch r := rng.Float64(); {
		case r < 0.5: // zero → Eff() treats as 1
		case r < 0.9:
			op.Efficiency = rng.Uniform(0.3, 1)
		default:
			op.Efficiency = 1.5 // out of range → Eff() clamps to 1
		}
		if op.Compute > 0 {
			switch r := rng.Float64(); {
			case r < 0.3: // no HBM traffic
			case r < 0.8:
				// Demand up to ~capacity: mostly unthrottled.
				op.HBMBytes = float64(op.Compute) * rng.Uniform(0, 400)
			default:
				// Demand far above even the fastest config: throttled.
				op.HBMBytes = float64(op.Compute) * rng.Uniform(400, 4000)
			}
		} else if rng.Float64() < 0.5 {
			op.HBMBytes = rng.Uniform(0, 1e6) // zero-compute op with traffic
		}
		switch r := rng.Float64(); {
		case r < 0.4: // no vmem footprint
		case r < 0.6:
			op.VMemBytes = int64(rng.Intn(64 << 10))
		case r < 0.85:
			op.VMemBytes = int64(float64(partition) * rng.Uniform(0.5, 4))
		default:
			op.VMemBytes = int64(float64(partition) * rng.Uniform(4, 32))
		}
		ops[i] = op
	}
	return ops
}

// balanceDurations keeps per-request durations within 32× of each other by
// padding fast workloads' trailing stall. Without the floor, a microsecond
// workload collocated with a millisecond one over-serves by thousands of
// requests in the closed loop, which only burns trial time without covering
// new behaviour.
func balanceDurations(s *Scenario) {
	var maxSerial int64 = 1
	serials := make([]int64, len(s.Workloads))
	for i, w := range s.Workloads {
		var t int64
		for _, op := range w.Ops {
			t += op.Compute + op.Stall
		}
		serials[i] = t
		maxSerial = mathx.MaxInt64(maxSerial, t)
	}
	// Floor of 1 also rules out all-zero workloads, whose closed loop would
	// chain every request at a single timestamp and never advance the clock.
	floor := mathx.MaxInt64(maxSerial/32, 1)
	for i := range s.Workloads {
		if serials[i] < floor {
			last := len(s.Workloads[i].Ops) - 1
			s.Workloads[i].Ops[last].Stall += floor - serials[i]
		}
	}
}

// serveCycles estimates one request's uncontended service time for workload
// i under the V10 schemes: tiled stalls + dispatch latency + fluid compute.
func serveCycles(s *Scenario, i int) float64 {
	t := s.tiling(SchemeFull) // every V10 scheme tiles alike
	return float64(t.serviceCycles(s.Workloads[i], s.Config.HBMBytesPerCycle()))
}

// roundServeCycles is one request of every workload served back to back, the
// unit the generators size offered load against; at least one cycle.
func roundServeCycles(s *Scenario) float64 {
	var t float64
	for i := range s.Workloads {
		t += serveCycles(s, i)
	}
	if t < 1 {
		t = 1
	}
	return t
}

// budget sizes MaxCycles so that any correct run finishes with a wide margin:
// total serial service, amplified by the worst-case priority skew (a starved
// workload progresses at minPrio/ΣPrio of wall time), preemption overhead per
// time slice, PMT's context-switch-per-quantum overhead, and open-loop
// arrival tails. A correct scheduler never comes close; hitting the budget in
// a generated trial is reported as a livelock violation.
func budget(s *Scenario) int64 {
	var totalServe, prioSum float64
	minPrio, maxPrio := s.Workloads[0].Priority, s.Workloads[0].Priority
	for i, w := range s.Workloads {
		totalServe += serveCycles(s, i) * float64(s.Requests)
		prioSum += w.Priority
		if w.Priority < minPrio {
			minPrio = w.Priority
		}
		if w.Priority > maxPrio {
			maxPrio = w.Priority
		}
	}
	prioFactor := prioSum / minPrio
	cfg := s.Config
	preemptFactor := 1 +
		float64(3*cfg.SADim)/float64(cfg.TimeSlice) +
		float64(cfg.VUPreemptCycles()+1)/float64(cfg.TimeSlice)
	pmtFactor := 1.0
	var pmtOver float64
	if len(s.Workloads) > 1 {
		quantum := s.PMTQuantum
		if quantum <= 0 {
			quantum = 1_400_000
		}
		qMin, qMax := float64(quantum), float64(quantum)
		if s.PMTWeighted {
			n := float64(len(s.Workloads))
			qMin *= minPrio / prioSum * n
			qMax *= maxPrio / prioSum * n
		}
		if qMin < 1 {
			qMin = 1
		}
		pmtFactor = 1 + float64(cfg.PMTContextSwitchCycles(1))/qMin
		// Closed-loop over-serving: every tenant that finishes early keeps
		// burning whole quanta until the slowest one is done, so the makespan
		// is dominated by quantum rotation, not by useful service. Budget a
		// full rotation of maximal slices per request round.
		pmtOver = float64(s.Requests+1) * float64(len(s.Workloads)) *
			(qMax + float64(cfg.PMTContextSwitchCycles(1)))
		if s.PMTPrema {
			// PREMA's SJF tie-break only yields to a starving workload once
			// its tokens leave everyone else below half the maximum, so a
			// low-priority tenant waits O(prioSum/minPrio) whole-core quanta
			// between its slices. With weighted quanta the starving tenant is
			// additionally served in qMin-sized slices while the rotation it
			// waits out runs qMax-sized ones, so its completion scales with
			// (its total service / qMin) token-rebuild rotations. Budget that
			// worst case: it is the baseline's documented coarse-grain
			// unfairness, not a livelock.
			rotation := (4*prioSum/minPrio + 8) *
				(qMax + float64(cfg.PMTContextSwitchCycles(1)))
			maxSlices := 2.0
			for i := range s.Workloads {
				slices := 2*serveCycles(s, i)*float64(s.Requests)/qMin + 4
				if slices > maxSlices {
					maxSlices = slices
				}
			}
			pmtOver += maxSlices * rotation
		}
	}
	over := preemptFactor
	if pmtFactor > over {
		over = pmtFactor
	}
	b := int64((totalServe+1000)*prioFactor*over*6+pmtOver) + 3_000_000
	if s.ArrivalRateHz > 0 {
		gap := cfg.FrequencyHz / s.ArrivalRateHz
		b += int64(40 * float64(s.Requests) * gap)
	}
	return b
}

// trialCost estimates the event count of simulating one scenario across all
// of its schemes, in the same worst-case terms budget uses for MaxCycles. The
// V10 schemes cost the op dispatch/complete churn plus one slice tick per
// TimeSlice across the priority-skewed makespan; PMT is dominated by quantum
// rotation, so its cost is the cycle budget divided by the smallest slice.
// This is a rejection proxy for GenScenario, not a runtime prediction: most
// trials finish far below their budget, and over-rejecting merely resamples.
func trialCost(s *Scenario) float64 {
	var totalServe, prioSum float64
	minPrio := s.Workloads[0].Priority
	totalOps := 0
	for i, w := range s.Workloads {
		totalServe += serveCycles(s, i) * float64(s.Requests)
		prioSum += w.Priority
		if w.Priority < minPrio {
			minPrio = w.Priority
		}
		totalOps += len(w.Ops)
	}
	v10Span := totalServe * prioSum / minPrio
	cost := 0.0
	for _, scheme := range s.Schemes {
		if scheme == SchemePMT {
			quantum := s.PMTQuantum
			if quantum <= 0 {
				quantum = 1_400_000
			}
			qMin := float64(quantum)
			if s.PMTWeighted {
				qMin *= minPrio / prioSum * float64(len(s.Workloads))
			}
			if qMin < 1 {
				qMin = 1
			}
			cost += float64(s.MaxCycles) / qMin
		} else {
			cost += float64(totalOps*s.Requests)*4 + v10Span/float64(s.Config.TimeSlice)
		}
	}
	return cost
}

func pickInt(rng *mathx.RNG, xs ...int) int       { return xs[rng.Intn(len(xs))] }
func pick64(rng *mathx.RNG, xs ...int64) int64    { return xs[rng.Intn(len(xs))] }
func pickF(rng *mathx.RNG, xs ...float64) float64 { return xs[rng.Intn(len(xs))] }
