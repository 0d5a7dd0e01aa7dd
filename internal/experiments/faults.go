package experiments

import (
	"fmt"

	"v10/internal/faults"
	"v10/internal/fleet"
	"v10/internal/report"
)

// faultMTTFs is the resilience sweep's mean-time-to-failure axis in cycles.
// The axis spans partial-fleet failure (three of four cores lost) down to a
// single failure; it deliberately stays above the regime where every core
// dies, because with no survivors there is nowhere to migrate and every
// strategy collapses to the same shed-everything outcome.
var faultMTTFs = []int64{130_000_000, 160_000_000, 400_000_000}

const (
	faultDuration  = 40_000_000 // arrival window in cycles (≈57 ms at 700 MHz)
	faultCores     = 4
	faultRateHz    = 120
	faultHeartbeat = 250_000 // detection lag ≪ the work lost to a failure
	faultSLO       = 25      // loose enough that recovered (debt-carrying) requests can still be good
)

// faultConfigs are the compared resilience strategies. Migration is the
// recovery path under test; the shed-only row is the ablation that drops
// every victim, and the least-loaded row removes compatibility-aware
// placement from the recovery target choice.
var faultConfigs = []struct {
	label       string
	policy      fleet.Policy
	noMigration bool
}{
	{"advisor+migrate", fleet.PolicyAdvisor, false},
	{"least-loaded+migrate", fleet.PolicyLeastLoaded, false},
	{"advisor shed-only", fleet.PolicyAdvisor, true},
}

// Faults sweeps core mean-time-to-failure on a 4-core serving fleet and
// compares resilience strategies: checkpoint-driven migration of a failed
// core's victims to surviving compatible cores versus shedding them. Every
// cell also runs fault-free under its own configuration, so "retained" is
// the fraction of fault-free goodput the strategy preserved through the
// injected failures. Fault schedules depend only on the mttf and seed —
// every strategy faces the identical failures.
func (c *Context) Faults() (*report.Table, error) {
	tenants := c.fleetTenants()
	model, err := c.fleetAdvisor()
	if err != nil {
		return nil, fmt.Errorf("faults: training advisor: %w", err)
	}

	t := &report.Table{
		ID:    "faults",
		Title: "Fleet resilience: MTTF sweep vs recovery strategy (4 cores, 8 tenants)",
		Header: []string{"mttf (ms)", "strategy", "failed", "migrated", "mig-shed",
			"completed", "goodput (req/s)", "retained"},
	}
	baseOptions := func(policy fleet.Policy) fleet.Options {
		return fleet.Options{
			Config:         c.Config,
			Cores:          faultCores,
			Policy:         policy,
			Model:          model,
			RateHz:         faultRateHz,
			DurationCycles: faultDuration,
			SLOFactor:      faultSLO,
			Seed:           c.Seed,
			Parallel:       c.Parallel,
		}
	}
	retained := map[string]float64{}
	for _, mttf := range faultMTTFs {
		schedule := faults.Generate(faultCores, faultDuration, mttf, c.Seed)
		for _, fc := range faultConfigs {
			o := baseOptions(fc.policy)
			baseRes, err := fleet.Run(tenants, o)
			if err != nil {
				return nil, fmt.Errorf("faults: mttf %d %s fault-free baseline: %w", mttf, fc.label, err)
			}
			o.Faults = &fleet.FaultOptions{Schedule: schedule, HeartbeatCycles: faultHeartbeat, MissedBeats: 2}
			o.NoMigration = fc.noMigration
			res, err := fleet.Run(tenants, o)
			if err != nil {
				return nil, fmt.Errorf("faults: mttf %d %s: %w", mttf, fc.label, err)
			}
			frac := 0.0
			if baseRes.GoodputHz > 0 {
				frac = res.GoodputHz / baseRes.GoodputHz
			}
			retained[fc.label] += frac
			t.AddRow(c.Config.MicrosecondsFromCycles(mttf)/1e3, fc.label,
				len(res.FailedCores), res.Migrated, res.MigrationShed,
				res.Completed, res.GoodputHz, report.Percent(frac))
		}
	}
	n := float64(len(faultMTTFs))
	t.Note = fmt.Sprintf(
		"mean goodput retained across the sweep: advisor+migrate %.1f%%, least-loaded+migrate %.1f%%, advisor shed-only %.1f%%",
		100*retained["advisor+migrate"]/n, 100*retained["least-loaded+migrate"]/n,
		100*retained["advisor shed-only"]/n)
	return t, nil
}
