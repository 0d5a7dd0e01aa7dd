package simcheck

import "testing"

// composeSeeds scales a seed sweep down under -short or the race detector.
func composeSeeds(n uint64) uint64 {
	if testing.Short() || raceEnabled {
		return n / 10
	}
	return n
}

// withPMTKnobs copies a base scenario's PMT quantum and policy draws onto sc
// and makes PMT its only scheme.
func withPMTKnobs(sc, base *Scenario) {
	sc.Schemes = []string{SchemePMT}
	sc.PMTQuantum, sc.PMTPrema, sc.PMTWeighted = base.PMTQuantum, base.PMTPrema, base.PMTWeighted
}

// TestOpenLoopPMT runs the base arm's full invariant checker and oracles on
// open-loop PMT: every base seed below 100 with its schemes forced to PMT,
// once under Poisson arrivals and once replaying the workload arm's explicit
// arrival schedules.
func TestOpenLoopPMT(t *testing.T) {
	for seed := uint64(0); seed < composeSeeds(100); seed++ {
		base := GenScenario(seed)

		poisson := GenScenario(seed)
		withPMTKnobs(poisson, base)
		if poisson.ArrivalRateHz == 0 {
			poisson.ArrivalRateHz = 0.3 * poisson.Config.FrequencyHz / roundServeCycles(poisson)
		}
		poisson.MaxCycles = budget(poisson)

		explicit := GenWorkloadScenario(seed)
		withPMTKnobs(explicit, base)
		var last int64
		for _, sched := range explicit.ArrivalCycles {
			if n := len(sched); n > 0 {
				last = max(last, sched[n-1])
			}
		}
		explicit.MaxCycles = budget(explicit) + last

		for name, sc := range map[string]*Scenario{"poisson": poisson, "explicit": explicit} {
			if err := sc.Validate(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if v := CheckScenario(sc); v != nil {
				t.Errorf("seed %d %s:\n%s", seed, name, join(v.Problems))
			}
		}
	}
}

// TestFleetArmsUnderPMT runs the chaos, isolation and elastic arms' seeds
// below 50 with their scheme forced to PMT through the arms' own oracles:
// PMT composes with faults and migration, vNPU slices, and the elastic
// control plane.
func TestFleetArmsUnderPMT(t *testing.T) {
	for seed := uint64(0); seed < composeSeeds(50); seed++ {
		cs := GenChaosScenario(seed)
		cs.Scheme = SchemePMT
		is := GenIsolationScenario(seed)
		is.Scheme = SchemePMT
		es := GenElasticScenario(seed)
		es.Scheme = SchemePMT
		for arm, problems := range map[string][]string{
			"chaos":     CheckChaosScenario(cs),
			"isolation": CheckIsolationScenario(is),
			"elastic":   CheckElasticScenario(es),
		} {
			if len(problems) > 0 {
				t.Errorf("%s seed %d:\n%s", arm, seed, join(problems))
			}
		}
	}
}
