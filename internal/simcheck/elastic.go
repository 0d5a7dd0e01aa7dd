// Elastic arm: seeded random fleet trials under the autoscaling control
// plane. A generated scenario carries churn and flash-crowd traffic and an
// elastic block (control-loop knobs, admission policy, online
// re-clustering). Every fleet trial's conservation law covers drains (no
// tenant request is lost when its core is retired); the block's oracles
// assert control discipline (cooldown, hysteresis, LIFO drain order, verified
// by replaying a clean controller over the recorded signals), consistency of
// the typed control events with the recovery metrics, core-aware windowed
// stats, honest admission estimates and a faithful centroid drift.
package simcheck

import (
	"fmt"
	"math"

	"v10/internal/collocate"
	"v10/internal/ctlplane"
	"v10/internal/fleet"
	"v10/internal/mathx"
	"v10/internal/npu"
	"v10/internal/trace"
	"v10/internal/workload"
)

// GenElasticScenario derives a complete random elastic trial from one seed:
// fleet shape with a spare-core range, control-loop knobs tight enough that
// scaling actually happens inside the horizon, a tenant set, and a traffic
// mix of diurnal swings, MMPP flash crowds, and plain Poisson — with some
// tenants churning in and out via bounded active windows. Same seed, same
// scenario.
func GenElasticScenario(seed uint64) *FleetScenario {
	rng := mathx.NewRNG(seed + 0xe1a5)
	cfg := npu.DefaultConfig()
	cfg.TimeSlice = pick64(rng, 1024, 8192, 32768)

	es := &FleetScenario{
		Seed:         seed,
		Config:       cfg,
		Cores:        3 + rng.Intn(3),
		Scheme:       pickScheme(rng),
		Policy:       "least-loaded",
		QueueLimit:   2 + rng.Intn(7),
		ElasticBlock: &ElasticBlock{},
	}
	es.Control = ctlplane.Config{
		MinCores:          1 + rng.Intn(2),
		HysteresisWindows: 1 + rng.Intn(2),
	}
	// Most trials drain eagerly (high occupancy tolerance) so retirements
	// catch in-flight work and exercise the readmission path, not just
	// empty-core shutdowns.
	if rng.Float64() < 0.6 {
		es.Control.DrainOccupancy = pickF(rng, 0.5, 0.75, 0.95)
	}
	if rng.Float64() < 0.5 {
		es.Admission = string(fleet.AdmitPredictive)
	} else {
		es.Admission = string(fleet.AdmitQueueBound)
	}
	// A third of the trials serve under the advisor with online re-clustering
	// (the model itself is trained cheaply inside the checker).
	if rng.Float64() < 0.35 {
		es.Policy = "advisor"
		es.Recluster = true
	}

	var totalServe float64
	es.Workloads, totalServe = genTenants(rng, cfg, 3+rng.Intn(4))

	// Offered load against the *floor* capacity so the loop has a reason to
	// scale: perTenant is chosen so the aggregate demand (Σ perTenant ×
	// serve_i = perTenant × totalServe cycles/sec) runs at `util` × the floor
	// capacity. Peaks overload MinCores, troughs leave spares idle.
	util := pickF(rng, 1.2, 2.0, 3.5)
	perTenant := util * float64(es.Control.MinCores) * cfg.FrequencyHz / totalServe

	// Stretch the horizon until every tenant sees a statistically meaningful
	// arrival stream — windows with no arrivals carry no SLO signal and the
	// control loop never wakes up. Bounded to keep trials cheap.
	es.DurationCycles = pick64(rng, 1_000_000, 2_000_000, 4_000_000)
	if minD := int64(25 * totalServe / (util * float64(es.Control.MinCores))); es.DurationCycles < minD {
		es.DurationCycles = minD
	}
	if es.DurationCycles > 24_000_000 {
		es.DurationCycles = 24_000_000
	}
	if maxPer := 120 * cfg.FrequencyHz / float64(es.DurationCycles); perTenant > maxPer {
		perTenant = maxPer
	}
	// Tight control cadence so hysteresis+cooldown leave room for several
	// scale decisions inside the horizon.
	es.Control.IntervalCycles = es.DurationCycles / pick64(rng, 12, 16, 24)
	if rng.Float64() < 0.5 {
		es.Control.CooldownCycles = es.Control.IntervalCycles * int64(1+rng.Intn(3))
	}

	for range es.Workloads {
		spec := workload.Spec{RateHz: perTenant}
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // diurnal swing: the canonical scale-up/down driver
			spec.Process = workload.Diurnal
			spec.Amplitude = pickF(rng, 0.8, 0.95)
			spec.PhaseFrac = pickF(rng, 0, 0.25, 0.5)
		case 4, 5, 6: // MMPP flash crowd
			spec.Process = workload.MMPP
			spec.BurstFactor = pickF(rng, 6, 12)
		default:
			spec.Process = workload.Poisson
		}
		// Tenant churn: some tenants join late or leave early.
		switch rng.Intn(5) {
		case 0:
			spec.StartCycle = es.DurationCycles / int64(pick64(rng, 3, 4))
		case 1:
			spec.EndCycle = es.DurationCycles * 2 / 3
		}
		es.Traffic = append(es.Traffic, spec)
	}
	return es
}

// trainModel fits a small advisor model over the scenario's tenants with a
// cheap analytic pair-performance stub (no simulation): recluster trials need
// a model to update, not an accurate one.
func (es *FleetScenario) trainModel(ws []*trace.Workload) (*collocate.Model, error) {
	perf := func(a, b *trace.Workload) (float64, error) {
		fa := collocate.ExtractFeatures(a, es.Config, 1)
		fb := collocate.ExtractFeatures(b, es.Config, 1)
		// Complementary FU time fractions collocate well.
		return 1 + math.Abs(fa.Vec[7]-fb.Vec[7]), nil
	}
	return collocate.Train(ws, es.features(ws), perf, collocate.TrainConfig{
		K: 2, PairSamples: 2, Seed: es.Seed + 0x777, Parallel: 1,
	})
}

// features extracts every tenant's features as the dispatcher profiles them.
func (es *FleetScenario) features(ws []*trace.Workload) []collocate.Features {
	feats := make([]collocate.Features, len(ws))
	for i, w := range ws {
		feats[i] = collocate.ExtractFeatures(w, es.Config, elasticProfileRequests)
	}
	return feats
}

// elasticProfileRequests pins the dispatcher's ProfileRequests default; the
// estimate- and recluster-consistency oracles recompute features and service
// estimates independently and must sample identically.
const elasticProfileRequests = 3

// elasticSLOFactor pins the dispatcher's SLOFactor default (the scenario
// never overrides it).
const elasticSLOFactor = 10

// checkElasticControl asserts the control-discipline invariants: decisions
// replay cleanly (cooldown, hysteresis, LIFO), active counts stay inside
// [MinCores, Cores], home cores are never retired, and the provisioned
// core-cycles match the recorded activity spans.
func checkElasticControl(res *fleet.Result) (problems []string) {
	failf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	ctl := res.Control
	if ctl == nil {
		return append(problems, "elastic run has no control outcome")
	}
	problems = append(problems, ctlplane.CheckDiscipline(ctl.Config, ctl.MaxCores, ctl.Windows, ctl.Decisions)...)

	for _, sig := range ctl.Windows {
		if sig.ActiveCores < ctl.MinCores || sig.ActiveCores > ctl.MaxCores {
			failf("window %d: %d active cores outside [%d,%d]",
				sig.Window, sig.ActiveCores, ctl.MinCores, ctl.MaxCores)
		}
		if sig.Attainment < 0 || sig.Attainment > 1 {
			failf("window %d: attainment %v outside [0,1]", sig.Window, sig.Attainment)
		}
	}
	// The peak folds in every window and scale-up, so it bounds the final
	// count even after scale-downs.
	if ctl.FinalActiveCores < ctl.MinCores || ctl.FinalActiveCores > ctl.MaxCores ||
		ctl.PeakActiveCores < ctl.FinalActiveCores {
		failf("active-core accounting inconsistent: final %d peak %d (min %d max %d)",
			ctl.FinalActiveCores, ctl.PeakActiveCores, ctl.MinCores, ctl.MaxCores)
	}

	// Home cores [0, MinCores) are always active: exactly one span covering
	// the whole horizon each. Spares' spans stay inside it.
	fullSpans := map[int]int{}
	var provisioned int64
	for _, sp := range ctl.CoreSpans {
		if sp.Core < 0 || sp.Core >= ctl.MaxCores {
			failf("span on nonexistent core %d", sp.Core)
			continue
		}
		if sp.StartCycle < 0 || sp.EndCycle > res.DurationCycles || sp.EndCycle <= sp.StartCycle {
			failf("core %d: malformed activity span [%d,%d)", sp.Core, sp.StartCycle, sp.EndCycle)
		}
		if sp.StartCycle == 0 && sp.EndCycle == res.DurationCycles {
			fullSpans[sp.Core]++
		} else if sp.Core < ctl.MinCores {
			failf("home core %d has a partial activity span [%d,%d) — it must never be drained",
				sp.Core, sp.StartCycle, sp.EndCycle)
		}
		provisioned += sp.EndCycle - sp.StartCycle
	}
	for c := 0; c < ctl.MinCores; c++ {
		if fullSpans[c] != 1 {
			failf("home core %d: %d full-horizon spans, want exactly 1", c, fullSpans[c])
		}
	}
	if provisioned != res.ProvisionedCoreCycles {
		failf("provisioned core-cycles %d do not match span sum %d", res.ProvisionedCoreCycles, provisioned)
	}
	return problems
}

// checkElasticWindows asserts the core-aware windowed stats: per-tenant
// window rows must cover the horizon, attribute completions exactly once,
// and report per-core goodput against the cores active in that window.
func checkElasticWindows(res *fleet.Result) (problems []string) {
	failf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	for _, ts := range res.Tenants {
		if len(ts.Windows) == 0 {
			failf("tenant %d: no stats windows despite autoscaling", ts.Tenant)
			continue
		}
		sumC, sumG := 0, 0
		for i, w := range ts.Windows {
			if w.Window != i {
				failf("tenant %d: window %d indexed as %d", ts.Tenant, i, w.Window)
			}
			if w.EndCycle <= w.StartCycle {
				failf("tenant %d window %d: empty bounds [%d,%d)", ts.Tenant, i, w.StartCycle, w.EndCycle)
			}
			if w.Good > w.Completed {
				failf("tenant %d window %d: %d good of %d completed", ts.Tenant, i, w.Good, w.Completed)
			}
			sumC += w.Completed
			sumG += w.Good
		}
		if sumC != ts.Completed || sumG != ts.Good {
			failf("tenant %d: window sums (%d completed, %d good) != totals (%d, %d) — completions misattributed across scale events",
				ts.Tenant, sumC, sumG, ts.Completed, ts.Good)
		}
	}
	return problems
}

// checkEstimateConsistency recomputes every tenant's service-time estimate
// from the trace alone and pins the dispatcher's SLO denominator to it: a
// dispatcher whose admission estimates drift from the profiling path (the
// "estimates off by 2x" bug) books queues and SLOs it cannot honor.
func checkEstimateConsistency(ws []*trace.Workload, res *fleet.Result) (problems []string) {
	for i, ts := range res.Tenants {
		want := elasticSLOFactor * serialEstimate(ws[i], elasticProfileRequests)
		if ts.SLOCycles != want {
			problems = append(problems, fmt.Sprintf(
				"tenant %d: SLO %v cycles != %d× the recomputed service estimate %v — admission estimates are skewed",
				ts.Tenant, ts.SLOCycles, elasticSLOFactor, want/elasticSLOFactor))
		}
	}
	return problems
}

// serialEstimate is the mean serial stall+compute time of w's requests
// 0..n-1, synthesized afresh. It deliberately does not call
// fleet.EstimateServeCycles, which reads the workload's profile memo: a memo
// bug would agree with itself.
func serialEstimate(w *trace.Workload, n int) float64 {
	var total float64
	for r := 0; r < n; r++ {
		total += float64(w.Request(r).SerialCycles())
	}
	return total / float64(n)
}

// checkReclusterConsistency is the stale-centroid oracle: replaying the
// recorded per-window observations against a fresh clone of the offline
// model must reproduce the run's cumulative drift exactly (same fold order,
// same float math). A control plane that stops updating centroids as the mix
// churns reports a drift this replay contradicts.
func checkReclusterConsistency(es *FleetScenario, ws []*trace.Workload,
	model *collocate.Model, res *fleet.Result) (problems []string) {
	ctl := res.Control
	if ctl == nil {
		return nil
	}
	if len(ctl.ObservedTenants) != len(ctl.Windows) {
		return append(problems, fmt.Sprintf(
			"observed-tenant record has %d windows, signals have %d", len(ctl.ObservedTenants), len(ctl.Windows)))
	}
	feats := es.features(ws)
	clone := model.CloneForOnline()
	want := 0.0
	for _, window := range ctl.ObservedTenants {
		// Per-window inner sum first, mirroring the dispatcher's fold order —
		// float addition is not associative.
		winDrift := 0.0
		for _, t := range window {
			if t < 0 || t >= len(feats) {
				return append(problems, fmt.Sprintf("observed nonexistent tenant %d", t))
			}
			_, moved := clone.Observe(feats[t])
			winDrift += moved
		}
		want += winDrift
	}
	if ctl.ModelDrift != want {
		problems = append(problems, fmt.Sprintf(
			"recorded model drift %v does not match an independent replay of the observations (%v) — stale or extra centroid updates",
			ctl.ModelDrift, want))
	}
	return problems
}
