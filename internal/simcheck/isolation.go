// Isolation arm: seeded noisy-neighbor trials on a vNPU-sliced core. A
// generated scenario's slices block pins a well-behaved victim tenant into
// slice 0 and a pack of aggressors — HBM flooders, vector-memory hogs, or an
// MMPP flash crowd — into the sibling slice, and the block's oracles assert
// the spatial-partitioning contract:
//
//   - containment: the victim's p99 latency with the noisy neighbor next
//     door stays within a constant factor (plus window-granularity slack)
//     of its latency running alone on the same slice;
//   - conservation: replaying the EvSliceHBM event stream, each slice's
//     cumulative granted bytes never exceed vnpu.WindowBound, per-slice
//     vector-memory high-water marks stay under their hard ceilings, and
//     the slice ceilings sum to at most the device's vector memory;
//   - consistency: the event stream and the SliceStats counters tell one
//     story (bytes and throttle stalls match up to the documented
//     in-flight slack).
package simcheck

import (
	"fmt"

	"v10/internal/fleet"
	"v10/internal/mathx"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/vnpu"
	"v10/internal/workload"
)

// IsolationBound is the containment factor: with slicing on, a noisy
// neighbor in the sibling slice may not stretch the victim's p99 beyond
// this multiple of its victim-alone p99 (plus IsolationSlack windows of
// token-bucket granularity). The residual coupling it allows for is the
// fluid HBM model's proportional sharing and engine-level event
// interleaving, both bounded; without enforced slicing the flood aggressors
// push the victim one to two orders of magnitude past it.
const IsolationBound = 2.0

// IsolationSlack scales the additive slack term: SlackCycles = IsolationSlack
// × (WindowCycles + TimeSlice) absorbs quantization when the victim-alone p99
// is small against the token-bucket window.
const IsolationSlack = 4

// AggressorKinds lists the noisy-neighbor archetypes GenIsolationScenario
// rotates through (seed mod 3 picks one, so any contiguous seed sweep covers
// all three).
var AggressorKinds = []string{"hbm-flood", "vmem-hog", "flash-crowd"}

// GenIsolationScenario derives a complete noisy-neighbor trial from one
// seed: slice split, token-bucket window, an SA-bound victim, and one to two
// aggressors of the seed's archetype with arrival schedules hot enough to
// saturate their slice. Same seed, same scenario.
func GenIsolationScenario(seed uint64) *FleetScenario {
	rng := mathx.NewRNG(seed + 0x150a71)
	cfg := npu.DefaultConfig()
	cfg.TimeSlice = pick64(rng, 8192, 32768)

	kind := AggressorKinds[seed%uint64(len(AggressorKinds))]
	victimFrac := pickF(rng, 0.5, 0.75)
	aggFrac := 1 - victimFrac
	window := pick64(rng, 16384, 65536)

	is := &FleetScenario{
		Seed:           seed,
		Config:         cfg,
		Cores:          1,
		Scheme:         pickScheme(rng),
		Policy:         string(fleet.PolicyLeastLoaded),
		DurationCycles: pick64(rng, 1_000_000, 2_000_000),
		QueueLimit:     32,
		SliceBlock: &SliceBlock{
			Aggressor: kind,
			Templates: []vnpu.Template{
				{Name: "victim", Compute: victimFrac, VMem: victimFrac, HBM: victimFrac},
				{Name: "noisy", Compute: aggFrac, VMem: aggFrac, HBM: aggFrac},
			},
			WindowCycles: window,
			Bound:        IsolationBound,
			SlackCycles:  IsolationSlack * (window + cfg.TimeSlice),
		},
	}

	// Victim: a systolic-array-bound chain with moderate HBM traffic — the
	// tenant whose tail latency the slicing contract protects.
	nv := 3 + rng.Intn(3)
	vops := make([]OpSpec, nv)
	for i := range vops {
		c := 500 + int64(rng.Intn(3000))
		vops[i] = OpSpec{
			Kind:      "SA",
			Compute:   c,
			Stall:     int64(rng.Intn(200)),
			HBMBytes:  float64(c) * rng.Uniform(20, 80),
			VMemBytes: int64(rng.Intn(32 << 10)),
		}
	}
	is.Workloads = append(is.Workloads, WorkloadSpec{Name: "victim", Priority: 1, Ops: vops})

	// Aggressors: one or two tenants of the archetype, sized against their
	// slice's vector-memory share.
	na := 1 + rng.Intn(2)
	aggPart := int64(float64(cfg.VMemBytes)*aggFrac) / int64(na)
	for a := 0; a < na; a++ {
		n := 2 + rng.Intn(3)
		ops := make([]OpSpec, n)
		for i := range ops {
			op := OpSpec{Kind: "VU", Compute: 1000 + int64(rng.Intn(3000))}
			if rng.Float64() < 0.5 {
				op.Kind = "SA"
			}
			switch kind {
			case "hbm-flood":
				// Demand far above even the whole device's bandwidth: the
				// slice's token bucket must throttle nearly every window.
				op.HBMBytes = float64(op.Compute) * rng.Uniform(1000, 3000)
				op.VMemBytes = int64(rng.Intn(32 << 10))
			case "vmem-hog":
				// Footprints several times the slice partition force deep
				// tiling and context-capacity rejections at the ceiling.
				op.HBMBytes = float64(op.Compute) * rng.Uniform(100, 400)
				op.VMemBytes = int64(float64(aggPart) * rng.Uniform(2, 8))
			default: // flash-crowd: ordinary ops, bursty arrivals
				op.HBMBytes = float64(op.Compute) * rng.Uniform(50, 200)
				op.VMemBytes = int64(rng.Intn(64 << 10))
			}
			ops[i] = op
		}
		is.Workloads = append(is.Workloads,
			WorkloadSpec{Name: fmt.Sprintf("%s%d", kind, a), Priority: 1, Ops: ops})
	}

	// Arrival schedules: the victim trickles at ~25% of its sliced-service
	// capacity; aggressors offer up to several times theirs. Flash crowds
	// arrive as MMPP bursts, everything else as Poisson.
	sc := &Scenario{Config: cfg, Workloads: is.Workloads}
	specs := make([]workload.Spec, len(is.Workloads))
	for i := range specs {
		frac, util := victimFrac, 0.25
		spec := workload.Spec{Process: workload.Poisson}
		if i > 0 {
			frac = aggFrac
			util = pickF(rng, 0.8, 1.5, 3.0) / float64(na)
			if kind == "flash-crowd" {
				spec.Process = workload.MMPP
			}
		}
		serve := serveCycles(sc, i) / frac
		if serve < 1 {
			serve = 1
		}
		spec.RateHz = util * cfg.FrequencyHz / serve
		specs[i] = spec
	}
	eng := workload.Engine{Config: cfg, HorizonCycles: is.DurationCycles, Seed: seed}
	var err error
	if is.Arrivals, err = eng.Schedules(specs); err != nil {
		panic(fmt.Sprintf("simcheck: isolation generator produced invalid spec: %v", err))
	}
	if len(is.Arrivals[0]) == 0 {
		is.Arrivals[0] = []int64{0} // the containment oracle needs a victim request
	}
	return is
}

// checkVictimContainment asserts the headline isolation property: slicing
// bounds how much the noisy neighbor can stretch the victim's tail.
func checkVictimContainment(is *FleetScenario, alone, noisy *fleet.Result) (problems []string) {
	va, vn := alone.Tenants[0], noisy.Tenants[0]
	if va.Completed == 0 {
		return append(problems, "victim-alone run served no victim requests")
	}
	if vn.Completed == 0 {
		return append(problems, "noisy run served no victim requests")
	}
	limit := is.Bound*va.P99LatencyCycles + float64(is.SlackCycles)
	if vn.P99LatencyCycles > limit {
		problems = append(problems, fmt.Sprintf(
			"victim p99 %0.f with %s neighbor exceeds %0.f (= %.1f × alone p99 %0.f + %d slack)",
			vn.P99LatencyCycles, is.Aggressor, limit, is.Bound, va.P99LatencyCycles, is.SlackCycles))
	}
	return problems
}

// checkSliceConservation replays each sliced core's slice event stream,
// logs[core], against that core's SliceStats and the token-bucket
// conservation law. Core 0, the victim's, must have run.
func checkSliceConservation(is *FleetScenario, res *fleet.Result, logs []sliceEvents) (problems []string) {
	if res.Cores[0].Run == nil {
		return append(problems, "noisy run left core 0 idle")
	}
	for c, cr := range res.Cores {
		if cr.Run == nil {
			continue
		}
		problems = append(problems, checkCoreSlices(is, c, cr, logs[c].events)...)
	}
	return problems
}

// checkCoreSlices checks core c's slice events against its SliceStats. Its
// problems name the core unless it is core 0, the victim's.
func checkCoreSlices(is *FleetScenario, c int, cr fleet.CoreResult, events []obs.Event) (problems []string) {
	failf := func(format string, args ...any) {
		p := fmt.Sprintf(format, args...)
		if c > 0 {
			p = fmt.Sprintf("core %d %s", c, p)
		}
		problems = append(problems, p)
	}
	nSlices := len(is.Templates)
	if len(cr.Slices) != nSlices {
		return append(problems, fmt.Sprintf("core %d reports %d slice stats, want %d", c, len(cr.Slices), nSlices))
	}

	// Hard ceilings: per-slice vmem under its cap, caps summing to at most
	// the device's vector memory.
	var vmemTotal int64
	for i, ss := range cr.Slices {
		if ss.VMemUsedBytes > ss.VMemBytes {
			failf("slice %d vmem high-water %d exceeds its ceiling %d", i, ss.VMemUsedBytes, ss.VMemBytes)
		}
		vmemTotal += ss.VMemBytes
	}
	if vmemTotal > is.Config.VMemBytes {
		failf("slice vmem ceilings sum to %d, device has %d", vmemTotal, is.Config.VMemBytes)
	}

	// Event replay: cumulative granted bytes per slice may never exceed the
	// window-quota bound, at the grant cycle or in total.
	evBytes := make([]float64, nSlices)
	evThrottles := make([]int64, nSlices)
	for _, e := range events { // only slice-hbm and slice-throttle events
		s := int(e.Arg0)
		if s < 0 || s >= nSlices {
			failf("%s event names slice %d of %d", e.Type, s, nSlices)
			continue
		}
		switch e.Type {
		case obs.EvSliceHBM:
			if e.Arg1 <= 0 {
				failf("slice-hbm event carries non-positive bytes %v", e.Arg1)
			}
			evBytes[s] += e.Arg1
			ss := cr.Slices[s]
			if bound := vnpu.WindowBound(ss.WindowCycles, ss.QuotaBytes, e.Time, ss.Residents); evBytes[s] > bound*(1+1e-9) {
				failf("slice %d granted %0.f bytes by cycle %d, conservation bound is %0.f",
					s, evBytes[s], e.Time, bound)
			}
		case obs.EvSliceThrottle:
			if e.Dur <= 0 {
				failf("slice-throttle span has non-positive duration %d", e.Dur)
			}
			evThrottles[s]++
		}
	}

	// Consistency: the stats counters may lead the event stream by at most
	// the in-flight slack — the closed loop charges the next operator before
	// the run's done-predicate fires, and a charge granted past run end
	// never emits its event — but never the other way around.
	for s, ss := range cr.Slices {
		if bound := vnpu.WindowBound(ss.WindowCycles, ss.QuotaBytes, cr.Run.TotalCycles, ss.Residents); ss.HBMBytes > bound*(1+1e-9) {
			failf("slice %d stats report %0.f HBM bytes over %d cycles, conservation bound is %0.f",
				s, ss.HBMBytes, cr.Run.TotalCycles, bound)
		}
		slack := inflightSlack(is, s)
		if evBytes[s] > ss.HBMBytes*(1+1e-9) {
			failf("slice %d events grant %0.f bytes but stats charged only %0.f",
				s, evBytes[s], ss.HBMBytes)
		}
		if gap := ss.HBMBytes - evBytes[s]; gap > slack {
			failf("slice %d stats lead events by %0.f bytes, in-flight slack allows %0.f",
				s, gap, slack)
		}
		if evThrottles[s] > ss.ThrottleStalls {
			failf("slice %d has %d throttle spans but stats count %d stalls",
				s, evThrottles[s], ss.ThrottleStalls)
		}
		if gap := ss.ThrottleStalls - evThrottles[s]; gap > int64(ss.Residents) {
			failf("slice %d stats count %d stalls but only %d spans were emitted (slack %d)",
				s, ss.ThrottleStalls, evThrottles[s], ss.Residents)
		}
	}
	return problems
}

// inflightSlack bounds how far a slice's charged-bytes counter may lead its
// event stream: each resident serves operators sequentially, so at most one
// charge per resident is in flight (charged but not yet granted, or granted
// past run end), each at most one operator's bytes. Tiling can reshape an
// operator's traffic, so the per-op term is doubled to cover reload bytes.
func inflightSlack(is *FleetScenario, slice int) float64 {
	var maxOp float64
	residents := 0
	for i, w := range is.Workloads {
		if (i > 0) != (slice == 1) {
			continue // workload 0, the victim, is in slice 0; aggressors in slice 1
		}
		residents++
		for _, op := range w.Ops {
			if op.HBMBytes > maxOp {
				maxOp = op.HBMBytes
			}
		}
	}
	return float64(residents) * (2*maxOp + 1)
}
