package experiments

import (
	"fmt"

	"v10/internal/collocate"
	"v10/internal/fleet"
	"v10/internal/report"
	"v10/internal/trace"
)

// fleetMix is the tenant population of the placement-policy sweep: SA-heavy
// (BERT, TFMR, RsNt) and VU-heavy (NCF, DLRM, MNST) models interleaved so
// compatibility-aware placement has real signal to exploit.
var fleetMix = []string{"BERT", "NCF", "TFMR", "DLRM", "RsNt", "MNST", "SMask", "ENet"}

// fleetRates is the default load sweep (per-tenant open-loop arrival rates).
var fleetRates = []float64{60, 120, 180}

// fleetTenants builds the sweep's 8-tenant population at batch 8.
func (c *Context) fleetTenants() []*trace.Workload {
	out := make([]*trace.Workload, len(fleetMix))
	for i, abbrev := range fleetMix {
		out[i] = c.batchWorkload(abbrev, 8)
	}
	return out
}

// fleetAdvisor memoizes the collocation advisor trained on fleetTenants,
// which the fleet and faults sweeps share. fleet.Run only reads a model: a
// threshold override or online re-clustering works on a copy.
func (c *Context) fleetAdvisor() (*collocate.Model, error) {
	return c.advisors.Do("fleet", func() (*collocate.Model, error) {
		return collocate.TrainSimulated(c.fleetTenants(), c.Config, c.ProfileRequests,
			collocate.TrainConfig{K: 4, PairSamples: 8, Seed: c.Seed, Parallel: c.Parallel})
	})
}

// Fleet compares advisor-guided, least-loaded, and random tenant placement on
// a 4-core serving fleet under a load sweep: every policy sees the identical
// arrival streams; only where requests land differs. Goodput counts requests
// completed within each tenant's SLO (4× its estimated single-tenant service
// time — tight enough that contention-blind placement pays for it).
func (c *Context) Fleet() (*report.Table, error) {
	tenants := c.fleetTenants()
	model, err := c.fleetAdvisor()
	if err != nil {
		return nil, fmt.Errorf("fleet: training advisor: %w", err)
	}

	t := &report.Table{
		ID:    "fleet",
		Title: "Fleet serving: placement policy vs goodput (4 cores, 8 tenants)",
		Header: []string{"rate (Hz)", "policy", "offered", "shed", "completed",
			"goodput (req/s)", "p99 (ms)", "agg util"},
	}
	goodput := map[fleet.Policy][]float64{}
	for _, rate := range fleetRates {
		for _, policy := range []fleet.Policy{fleet.PolicyAdvisor, fleet.PolicyLeastLoaded, fleet.PolicyRandom} {
			res, err := fleet.Run(tenants, fleet.Options{
				Config:    c.Config,
				Cores:     4,
				Policy:    policy,
				Model:     model,
				RateHz:    rate,
				SLOFactor: 4,
				Seed:      c.Seed,
				Parallel:  c.Parallel,
			})
			if err != nil {
				return nil, fmt.Errorf("fleet: rate %v policy %s: %w", rate, policy, err)
			}
			goodput[policy] = append(goodput[policy], res.GoodputHz)
			var p99, util float64
			var cores int
			for _, ts := range res.Tenants {
				if ts.P99LatencyCycles > p99 {
					p99 = ts.P99LatencyCycles
				}
			}
			for _, cr := range res.Cores {
				if cr.Run != nil && cr.Run.TotalCycles > 0 {
					util += cr.Run.AggregateUtil()
					cores++
				}
			}
			if cores > 0 {
				util /= float64(cores)
			}
			t.AddRow(rate, string(policy), res.Offered, res.Shed, res.Completed,
				res.GoodputHz, p99/c.Config.CyclesPerMicrosecond()/1e3, report.Percent(util))
		}
	}
	var advSum, llSum, randSum float64
	for _, g := range goodput[fleet.PolicyAdvisor] {
		advSum += g
	}
	for _, g := range goodput[fleet.PolicyLeastLoaded] {
		llSum += g
	}
	for _, g := range goodput[fleet.PolicyRandom] {
		randSum += g
	}
	t.Note = fmt.Sprintf(
		"aggregate goodput across the sweep: advisor %.0f req/s, least-loaded %.0f req/s (%+.1f%%), random %.0f req/s (%+.1f%%)",
		advSum, llSum, deltaPct(advSum, llSum), randSum, deltaPct(advSum, randSum))
	return t, nil
}

// deltaPct is the advisor's relative goodput advantage over the baseline.
func deltaPct(adv, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (adv/base - 1) * 100
}
