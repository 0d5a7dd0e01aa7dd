package experiments

import (
	"fmt"

	"v10/internal/collocate"
	"v10/internal/fleet"
	"v10/internal/mathx"
	"v10/internal/report"
	"v10/internal/trace"
	"v10/internal/workload"
)

// workloadHorizon is the arrival window of the workload-engine sweep
// (50e6 cycles ≈ 71 ms at 700 MHz, the fleet default).
const workloadHorizon = 50_000_000

// workloadScenario is one row group of the sweep: a tenant population plus
// the per-tenant traffic specs the engine turns into arrival schedules.
type workloadScenario struct {
	name    string
	tenants []*trace.Workload
	specs   []workload.Spec
}

// workloadScenarios builds the two flagship scenarios:
//
//   - bursty: the fleet sweep's 8-model mix under MMPP flash crowds — long
//     calm stretches at a fraction of the mean rate punctuated by 8× bursts,
//     so placement quality decides whether bursts shed or ride out on a
//     compatible neighbor's idle engines.
//   - prefill/decode: the LLM serving mix — SA-bound prefill tenants against
//     VU/HBM-bound decode tenants on anti-phased diurnal traffic, the
//     FlexNPU-style collocation case the advisor is built for.
func (c *Context) workloadScenarios() []workloadScenario {
	bursty := workloadScenario{name: "bursty", tenants: c.fleetTenants()}
	for range bursty.tenants {
		bursty.specs = append(bursty.specs, workload.Spec{
			Process: workload.MMPP,
			RateHz:  180,
		})
	}

	mix := workload.PrefillDecodeMix(8, 120, c.Config, c.Seed)
	return []workloadScenario{
		bursty,
		{name: "prefill/decode", tenants: mix.Workloads, specs: mix.Specs},
	}
}

// WorkloadSweep compares the placement policies under the workload engine's
// non-Poisson traffic: every policy sees the identical per-tenant arrival
// schedules (bit-deterministic in the seed); only where requests land
// differs. The dispatcher runs with a 16-deep queue and an 8× SLO so that
// bursts queue rather than shed instantly — with the default shallow queue,
// burst goodput is decided by shed coin-flips at the admission edge instead
// of by how well the collocated residents absorb the backlog, which is the
// thing placement quality actually controls. Fairness is Jain's index over
// per-tenant goodput — 1 means every tenant got the same share of good
// completions, 1/n means one tenant took everything.
func (c *Context) WorkloadSweep() (*report.Table, error) {
	t := &report.Table{
		ID:    "workload",
		Title: "Workload engine: placement policy vs goodput under production-style traffic (4 cores, 8 tenants)",
		Header: []string{"scenario", "policy", "offered", "shed", "completed",
			"goodput (req/s)", "p99 (ms)", "fairness"},
	}
	goodput := map[string]map[fleet.Policy]float64{}
	for _, sc := range c.workloadScenarios() {
		model, err := collocate.TrainSimulated(sc.tenants, c.Config, c.ProfileRequests,
			collocate.TrainConfig{K: 4, PairSamples: 8, Seed: c.Seed, Parallel: c.Parallel})
		if err != nil {
			return nil, fmt.Errorf("workload: training advisor for %s: %w", sc.name, err)
		}
		eng := workload.Engine{Config: c.Config, HorizonCycles: workloadHorizon, Seed: c.Seed}
		arrivals, err := eng.Schedules(sc.specs)
		if err != nil {
			return nil, fmt.Errorf("workload: scheduling %s arrivals: %w", sc.name, err)
		}

		goodput[sc.name] = map[fleet.Policy]float64{}
		for _, policy := range []fleet.Policy{fleet.PolicyAdvisor, fleet.PolicyLeastLoaded, fleet.PolicyRandom} {
			res, err := fleet.Run(sc.tenants, fleet.Options{
				Config:         c.Config,
				Cores:          4,
				Policy:         policy,
				Model:          model,
				Arrivals:       arrivals,
				DurationCycles: workloadHorizon,
				QueueLimit:     16,
				SLOFactor:      8,
				Seed:           c.Seed,
				Parallel:       c.Parallel,
			})
			if err != nil {
				return nil, fmt.Errorf("workload: %s policy %s: %w", sc.name, policy, err)
			}
			goodput[sc.name][policy] = res.GoodputHz
			var p99 float64
			good := make([]float64, len(res.Tenants))
			for i, ts := range res.Tenants {
				if ts.P99LatencyCycles > p99 {
					p99 = ts.P99LatencyCycles
				}
				good[i] = float64(ts.Good)
			}
			// Jain's index over good completions; zero-good runs report 0.
			fairness := 0.0
			if res.Good > 0 {
				fairness = mathx.JainFairness(good)
			}
			t.AddRow(sc.name, string(policy), res.Offered, res.Shed, res.Completed,
				res.GoodputHz, p99/c.Config.CyclesPerMicrosecond()/1e3, fairness)
		}
	}
	t.Note = fmt.Sprintf(
		"advisor vs least-loaded goodput: bursty %+.1f%%, prefill/decode %+.1f%% — collocation-aware placement holds its lead when traffic is bursty and anti-phased, where a load-only estimate is stalest",
		deltaPct(goodput["bursty"][fleet.PolicyAdvisor], goodput["bursty"][fleet.PolicyLeastLoaded]),
		deltaPct(goodput["prefill/decode"][fleet.PolicyAdvisor], goodput["prefill/decode"][fleet.PolicyLeastLoaded]))
	return t, nil
}
