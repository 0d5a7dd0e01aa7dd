package simcheck

import (
	"fmt"

	"v10/internal/mathx"
	"v10/internal/workload"
)

// GenWorkloadScenario derives a workload-engine trial from one seed: a
// GenScenario hardware/workload draw re-armed with explicit per-workload
// arrival schedules from a random workload.Engine process (Poisson, uniform,
// diurnal, MMPP, or trace replay) instead of the closed loop or the runner's
// own Poisson draw. This puts the new arrival processes — including their
// bursts, phases, and churn windows — under the full invariant checker and
// the determinism oracle. Same seed, same scenario.
func GenWorkloadScenario(seed uint64) *Scenario {
	sc := GenScenario(seed)
	rng := mathx.NewRNG(seed ^ 0x3a7e11ab12cd34ef)

	// The arm draws the V10 schemes only, so its corpus stays fixed; PMT
	// replays explicit schedules too (TestOpenLoopPMT covers it).
	sc.Schemes = []string{SchemeBase, SchemeFair, SchemeFull}
	sc.ArrivalRateHz = 0
	sc.PMTQuantum, sc.PMTPrema, sc.PMTWeighted = 0, false, false

	// Horizon: enough room for ~Requests arrivals per workload at ~30% load
	// over the fleet's total uncontended service time.
	horizon := int64(roundServeCycles(sc) * float64(sc.Requests) / 0.3)
	if horizon < 1000 {
		horizon = 1000
	}
	perTenant := sc.Requests // expected arrivals per workload
	rateHz := float64(perTenant) / float64(horizon) * sc.Config.FrequencyHz

	eng := workload.Engine{Config: sc.Config, HorizonCycles: horizon, Seed: seed}
	sc.ArrivalCycles = make([][]int64, len(sc.Workloads))
	total := 0
	maxLen := 1
	for i := range sc.Workloads {
		spec := workload.Spec{RateHz: rateHz}
		switch rng.Intn(5) {
		case 0:
			spec.Process = workload.Poisson
		case 1:
			spec.Process = workload.Uniform
		case 2:
			spec.Process = workload.Diurnal
			spec.PhaseFrac = pickF(rng, 0, 0.25, 0.5)
		case 3:
			spec.Process = workload.MMPP
		default:
			spec.Process = workload.Replay
			gaps := make([]float64, 2+rng.Intn(4))
			for k := range gaps {
				gaps[k] = rng.Uniform(0.1, 2)
			}
			spec.GapsSec = gaps
		}
		if rng.Float64() < 0.25 { // tenant churn: a partial active window
			spec.StartCycle = int64(rng.Float64() * float64(horizon) / 2)
			spec.EndCycle = spec.StartCycle + 1 + int64(rng.Float64()*float64(horizon)/2)
		}
		arr, err := eng.Schedule(i, spec)
		if err != nil {
			// The generator only draws valid specs; an error here is itself a
			// bug worth surfacing, so make the scenario unrunnable loudly.
			panic(fmt.Sprintf("simcheck: workload generator produced invalid spec: %v", err))
		}
		sc.ArrivalCycles[i] = arr
		total += len(arr)
		if len(arr) > maxLen {
			maxLen = len(arr)
		}
	}
	if total == 0 {
		// All-empty schedules never advance the run; plant one arrival.
		sc.ArrivalCycles[0] = []int64{0}
		maxLen = 1
	}
	// The run's per-workload target is its schedule length; re-derive the
	// cycle budget against the longest schedule plus the arrival horizon
	// (the last arrival may land just before it).
	sc.Requests = maxLen
	sc.MaxCycles = budget(sc) + horizon
	return sc
}

// checkScheduleConformance is the workload-arm oracle: a clean run must
// serve exactly its schedule — workload i completes len(ArrivalCycles[i])
// requests, no more, no fewer.
func checkScheduleConformance(sc *Scenario, out *Outcome) []string {
	if sc.ArrivalCycles == nil || out.Result == nil || out.Err != nil {
		return nil
	}
	var problems []string
	for i, st := range out.Result.Workloads {
		if want := len(sc.ArrivalCycles[i]); st.Requests != want {
			problems = append(problems, fmt.Sprintf(
				"schedule conformance: workload %d served %d requests, schedule has %d",
				i, st.Requests, want))
		}
	}
	return problems
}
