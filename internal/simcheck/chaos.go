// Chaos arm: seeded random fleet trials under fault injection. A generated
// scenario's faults block mixes fail-stops (single core up to whole fleet),
// stragglers, HBM degradation and vector-memory pressure. Beyond the
// conservation law and determinism every fleet trial checks, the block's
// oracles assert that a fault-free trial matches the fleet run with no fault
// machinery bit for bit, that the fleet's typed fault events agree with its
// recovery metrics, and that every core the schedule leaves untouched passes
// the full per-core invariant Checker.
package simcheck

import (
	"fmt"

	"v10/internal/faults"
	"v10/internal/mathx"
	"v10/internal/npu"
)

// GenChaosScenario derives a complete random chaos trial from one seed:
// fleet shape, dispatcher and recovery knobs, tenant set, offered load from
// under- to over-saturated, and a fault schedule — plus the occasional
// fault-free trial. Same seed, same scenario.
func GenChaosScenario(seed uint64) *FleetScenario {
	rng := mathx.NewRNG(seed + 0xc4a05)
	cfg := npu.DefaultConfig()
	cfg.TimeSlice = pick64(rng, 1024, 8192, 32768)

	cs := &FleetScenario{
		Seed:           seed,
		Config:         cfg,
		Cores:          2 + rng.Intn(3),
		Scheme:         pickScheme(rng),
		Policy:         "least-loaded",
		DurationCycles: pick64(rng, 300_000, 1_000_000, 2_000_000),
		QueueLimit:     1 + rng.Intn(8),
		FaultBlock: &FaultBlock{
			HeartbeatCycles:        pick64(rng, 50_000, 100_000, 250_000),
			MissedBeats:            1 + rng.Intn(3),
			MigrationRetries:       1 + rng.Intn(5),
			MigrationBackoffCycles: pick64(rng, 50_000, 100_000, 250_000),
			NoMigration:            rng.Float64() < 0.15,
		},
	}
	if rng.Float64() < 0.3 {
		cs.Policy = "random"
	}

	var totalServe float64
	cs.Workloads, totalServe = genTenants(rng, cfg, 2+rng.Intn(5))

	// Offered load: util × fleet capacity, spread evenly over the tenants,
	// capped so a trial stays small even when requests are microscopic.
	util := pickF(rng, 0.4, 0.8, 1.5)
	cs.RateHz = util * float64(cs.Cores) * cfg.FrequencyHz / totalServe
	if maxRate := 120 * cfg.FrequencyHz / float64(cs.DurationCycles); cs.RateHz > maxRate {
		cs.RateHz = maxRate
	}

	// Fault schedule: mostly drawn from the generator at an MTTF aggressive
	// enough to kill cores regularly; sometimes none at all.
	if rng.Float64() < 0.85 {
		horizon := 2 * cs.DurationCycles
		mttf := horizon / int64(1+rng.Intn(4))
		if rng.Float64() < 0.2 {
			mttf = horizon * 8 // rare faults: most cores survive
		}
		cs.Faults = faults.Generate(cs.Cores, horizon, mttf, seed+0xdead).Faults
	}
	return cs
}

// genTenants draws n tenants that share the vector memory evenly, balanced so
// none is degenerate, and returns them with one round of their serve cycles.
func genTenants(rng *mathx.RNG, cfg npu.CoreConfig, n int) ([]WorkloadSpec, float64) {
	sc := &Scenario{Config: cfg, Workloads: make([]WorkloadSpec, n)}
	partition := cfg.VMemBytes / int64(n)
	for i := range sc.Workloads {
		sc.Workloads[i] = WorkloadSpec{Name: fmt.Sprintf("T%d", i), Priority: 1, Ops: genOps(rng, partition)}
	}
	balanceDurations(sc)
	return sc.Workloads, roundServeCycles(sc)
}

func pickScheme(rng *mathx.RNG) string {
	switch rng.Intn(4) {
	case 0:
		return SchemeBase
	case 1:
		return SchemeFair
	default:
		return SchemeFull
	}
}
