// Isolation harness: seeded noisy-neighbor trials on a vNPU-sliced core. An
// IsolationScenario pins a well-behaved victim tenant into slice 0 and a
// pack of aggressors — HBM flooders, vector-memory hogs, or an MMPP flash
// crowd — into the sibling slice, then asserts the spatial-partitioning
// contract:
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
//     in-flight slack);
//   - determinism: the same seed reproduces the noisy run bit for bit.
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

// IsolationScenario is one self-contained noisy-neighbor trial on a sliced
// core. It serializes to JSON so a failing seed replays from a repro file.
// Workloads[0] is the victim (pinned to slice 0); every other workload is an
// aggressor (pinned to slice 1). Arrivals[i] is workload i's explicit
// arrival schedule.
type IsolationScenario struct {
	Seed           uint64          `json:"seed"`
	Config         npu.CoreConfig  `json:"config"`
	Scheme         string          `json:"scheme"`
	Aggressor      string          `json:"aggressor"`
	Templates      []vnpu.Template `json:"templates"`
	WindowCycles   int64           `json:"window_cycles"`
	DurationCycles int64           `json:"duration_cycles"`
	QueueLimit     int             `json:"queue_limit"`
	Workloads      []WorkloadSpec  `json:"workloads"`
	Arrivals       [][]int64       `json:"arrivals"`
	Bound          float64         `json:"bound"`
	SlackCycles    int64           `json:"slack_cycles"`
}

// GenIsolationScenario derives a complete noisy-neighbor trial from one
// seed: slice split, token-bucket window, an SA-bound victim, and one to two
// aggressors of the seed's archetype with arrival schedules hot enough to
// saturate their slice. Same seed, same scenario.
func GenIsolationScenario(seed uint64) *IsolationScenario {
	rng := mathx.NewRNG(seed + 0x150a71)
	cfg := npu.DefaultConfig()
	cfg.TimeSlice = pick64(rng, 8192, 32768)

	kind := AggressorKinds[seed%uint64(len(AggressorKinds))]
	victimFrac := pickF(rng, 0.5, 0.75)
	aggFrac := 1 - victimFrac
	window := pick64(rng, 16384, 65536)

	is := &IsolationScenario{
		Seed:      seed,
		Config:    cfg,
		Scheme:    pickScheme(rng),
		Aggressor: kind,
		Templates: []vnpu.Template{
			{Name: "victim", Compute: victimFrac, VMem: victimFrac, HBM: victimFrac},
			{Name: "noisy", Compute: aggFrac, VMem: aggFrac, HBM: aggFrac},
		},
		WindowCycles:   window,
		DurationCycles: pick64(rng, 1_000_000, 2_000_000),
		QueueLimit:     32,
		Bound:          IsolationBound,
		SlackCycles:    IsolationSlack * (window + cfg.TimeSlice),
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
	eng := workload.Engine{Config: cfg, HorizonCycles: is.DurationCycles, Seed: seed}
	is.Arrivals = make([][]int64, len(is.Workloads))
	for i := range is.Workloads {
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
		arr, err := eng.Schedule(i, spec)
		if err != nil {
			panic(fmt.Sprintf("simcheck: isolation generator produced invalid spec: %v", err))
		}
		is.Arrivals[i] = arr
	}
	if len(is.Arrivals[0]) == 0 {
		is.Arrivals[0] = []int64{0} // the containment oracle needs a victim request
	}
	return is
}

// options maps the scenario onto fleet.Options for its first n tenants:
// one core, pinned placement, victim in slice 0, aggressors in slice 1.
func (is *IsolationScenario) options(n int) fleet.Options {
	home := make([]int, n)
	slices := make([]int, n)
	for i := range home {
		home[i] = i
		if i > 0 {
			slices[i] = 1
		}
	}
	return fleet.Options{
		Config:            is.Config,
		Cores:             1,
		Scheme:            is.Scheme,
		Policy:            fleet.PolicyLeastLoaded,
		Arrivals:          is.Arrivals[:n],
		DurationCycles:    is.DurationCycles,
		QueueLimit:        is.QueueLimit,
		NoSpill:           true,
		Seed:              is.Seed,
		Parallel:          1, // serial inside one trial; v10check parallelizes across trials
		VNPUTemplates:     is.Templates,
		SliceWindowCycles: is.WindowCycles,
		PinnedPlacement:   [][]int{home},
		PinnedSlices:      slices,
	}
}

// CheckIsolationScenario runs the trial and returns every oracle violation.
func CheckIsolationScenario(is *IsolationScenario) []string {
	return checkIsolation(is, nil, nil)
}

// filterTracer forwards events through fn, letting the mutation acceptance
// tests corrupt or drop them between the runner and the oracles.
type filterTracer struct {
	next obs.Tracer
	fn   func(obs.Event) (obs.Event, bool)
}

// Emit implements obs.Tracer.
func (f *filterTracer) Emit(e obs.Event) {
	if e2, keep := f.fn(e); keep {
		f.next.Emit(e2)
	}
}

// checkIsolation is CheckIsolationScenario with mutation hooks: mutate may
// corrupt or drop events between the runner and the oracles, mutateRes may
// corrupt the noisy run's result. The mutation acceptance tests use the
// hooks to prove injected enforcement bugs are caught; when either hook is
// set the determinism oracle is skipped (a corrupted view trivially differs
// from its clean re-run).
func checkIsolation(is *IsolationScenario,
	mutate func(obs.Event) (obs.Event, bool), mutateRes func(*fleet.Result)) (problems []string) {
	defer func() {
		if r := recover(); r != nil {
			problems = append(problems, fmt.Sprintf("panic: %v", r))
		}
	}()
	// Arm 1: the victim alone on its slice — the containment baseline.
	aloneRes, err := fleet.Run(buildWorkloads(is.Workloads, false)[:1], is.options(1))
	if err != nil {
		return append(problems, fmt.Sprintf("victim-alone run error: %v", err))
	}

	// Arm 2: victim plus aggressors, event log attached.
	coreLog := &obs.Log{}
	o := is.options(len(is.Workloads))
	o.CoreTracer = func(core int, tenants []int) obs.Tracer {
		if mutate != nil {
			return &filterTracer{next: coreLog, fn: mutate}
		}
		return coreLog
	}
	noisyRes, err := fleet.Run(buildWorkloads(is.Workloads, false), o)
	if err != nil {
		return append(problems, fmt.Sprintf("noisy run error: %v", err))
	}

	// Arm 3: determinism — the same seed must reproduce the noisy run bit
	// for bit, slice accounting included (the tracer may not perturb it).
	if mutate == nil && mutateRes == nil {
		rerun, err2 := fleet.Run(buildWorkloads(is.Workloads, false), is.options(len(is.Workloads)))
		if err2 != nil {
			problems = append(problems, fmt.Sprintf("noisy re-run error: %v", err2))
		} else if !sameResult(noisyRes, rerun) {
			problems = append(problems, "noisy run is not deterministic: re-run with the same seed differs")
		}
	}
	if mutateRes != nil {
		mutateRes(noisyRes)
	}

	problems = append(problems, checkVictimContainment(is, aloneRes, noisyRes)...)
	problems = append(problems, checkSliceConservation(is, noisyRes, coreLog.Events)...)
	return problems
}

// checkVictimContainment asserts the headline isolation property: slicing
// bounds how much the noisy neighbor can stretch the victim's tail.
func checkVictimContainment(is *IsolationScenario, alone, noisy *fleet.Result) (problems []string) {
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

// checkSliceConservation replays the slice event stream against the noisy
// run's SliceStats and the token-bucket conservation law.
func checkSliceConservation(is *IsolationScenario, res *fleet.Result, events []obs.Event) (problems []string) {
	failf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	cr := res.Cores[0]
	if cr.Run == nil {
		return append(problems, "noisy run left core 0 idle")
	}
	nSlices := len(is.Templates)
	if len(cr.Slices) != nSlices {
		return append(problems, fmt.Sprintf("core 0 reports %d slice stats, want %d", len(cr.Slices), nSlices))
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
	for _, e := range events {
		switch e.Type {
		case obs.EvSliceHBM:
			s := int(e.Arg0)
			if s < 0 || s >= nSlices {
				failf("slice-hbm event names slice %d of %d", s, nSlices)
				continue
			}
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
			s := int(e.Arg0)
			if s < 0 || s >= nSlices {
				failf("slice-throttle event names slice %d of %d", s, nSlices)
				continue
			}
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
func inflightSlack(is *IsolationScenario, slice int) float64 {
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

// shrinkIsolation is the isolation arm's shrinker: drop one aggressor
// together with its arrival schedule, always keeping the victim and at least
// one aggressor.
func shrinkIsolation(is *IsolationScenario) []*IsolationScenario {
	var out []*IsolationScenario
	for i := 1; len(is.Workloads) > 2 && i < len(is.Workloads); i++ {
		c := *is
		c.Workloads = without(is.Workloads, i)
		c.Arrivals = without(is.Arrivals, i)
		out = append(out, &c)
	}
	return out
}
