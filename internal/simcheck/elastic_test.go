package simcheck

import (
	"encoding/json"
	"strings"
	"testing"

	"v10/internal/collocate"
	"v10/internal/ctlplane"
	"v10/internal/fleet"
)

// elasticRunForTest materializes and runs one elastic scenario the same way
// the checker does, for liveliness counting and mutation seed searches.
func elasticRunForTest(t *testing.T, es *ElasticScenario) *fleet.Result {
	t.Helper()
	arr, err := es.arrivals()
	if err != nil {
		t.Fatalf("seed %d: traffic: %v", es.Seed, err)
	}
	ws := buildWorkloads(es.Workloads, false)
	var model *collocate.Model
	if es.Recluster {
		if model, err = es.trainModel(ws); err != nil {
			t.Fatalf("seed %d: training: %v", es.Seed, err)
		}
	}
	res, _ := fleet.Run(ws, es.options(arr, model))
	return res
}

func TestGenElasticScenarioDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		a, _ := json.Marshal(GenElasticScenario(seed))
		b, _ := json.Marshal(GenElasticScenario(seed))
		if string(a) != string(b) {
			t.Fatalf("seed %d: scenario generation is not deterministic", seed)
		}
	}
}

// TestElasticTrialsCoverScaling guards the generator against regressing into
// triviality: across a modest seed range the trials must actually exercise
// the control plane — scale-ups, drains with readmissions, predictive
// admission, online re-clustering with nonzero drift, and tenant churn.
func TestElasticTrialsCoverScaling(t *testing.T) {
	var ups, downs, readmits, predictive, drifted, churned int
	for seed := uint64(0); seed < 25; seed++ {
		es := GenElasticScenario(seed)
		if es.Admission == string(fleet.AdmitPredictive) {
			predictive++
		}
		for _, spec := range es.Traffic {
			if spec.StartCycle > 0 || spec.EndCycle > 0 {
				churned++
			}
		}
		res := elasticRunForTest(t, es)
		if res == nil || res.Control == nil {
			continue
		}
		ups += res.Control.ScaleUps
		downs += res.Control.ScaleDowns
		readmits += res.Control.Readmitted
		if res.Control.ModelDrift > 0 {
			drifted++
		}
	}
	if ups == 0 {
		t.Error("no scale-ups across 25 elastic trials")
	}
	if downs == 0 {
		t.Error("no scale-downs across 25 elastic trials")
	}
	if readmits == 0 {
		t.Error("no drain readmissions across 25 elastic trials")
	}
	if predictive == 0 {
		t.Error("no predictive-admission trials across 25 scenarios")
	}
	if drifted == 0 {
		t.Error("no re-clustering trial accumulated model drift across 25 scenarios")
	}
	if churned == 0 {
		t.Error("no churning tenants across 25 scenarios")
	}
}

// findElasticSeed scans seeds until the natural run satisfies the predicate;
// mutation tests use it to pick a trial where the injected bug is observable.
func findElasticSeed(t *testing.T, limit uint64, ok func(*ElasticScenario, *fleet.Result) bool) *ElasticScenario {
	t.Helper()
	for seed := uint64(0); seed < limit; seed++ {
		es := GenElasticScenario(seed)
		res := elasticRunForTest(t, es)
		if res != nil && res.Control != nil && ok(es, res) {
			return es
		}
	}
	t.Fatalf("no seed below %d satisfies the mutation-test predicate", limit)
	return nil
}

func requireProblem(t *testing.T, problems []string, substr string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Fatalf("no oracle names the injected bug (want substring %q), got: %v", substr, problems)
}

// TestElasticMutationIgnoredCooldownCaught injects a controller that scales
// again immediately after a scale event — the cooldown-discipline oracle must
// name the violated rule.
func TestElasticMutationIgnoredCooldownCaught(t *testing.T) {
	scaleIdx := func(res *fleet.Result) []int {
		var idx []int
		for i, d := range res.Control.Decisions {
			if d.Kind == ctlplane.DecideScaleUp || d.Kind == ctlplane.DecideScaleDown {
				idx = append(idx, i)
			}
		}
		return idx
	}
	es := findElasticSeed(t, 40, func(_ *ElasticScenario, res *fleet.Result) bool {
		return len(scaleIdx(res)) >= 2
	})
	problems := checkElastic(es, nil, func(res *fleet.Result) {
		idx := scaleIdx(res)
		res.Control.Decisions[idx[1]].AtCycle = res.Control.Decisions[idx[0]].AtCycle + 1
	})
	requireProblem(t, problems, "cooldown violated")
}

// TestElasticMutationDrainLeakCaught injects a drain path that loses one
// victim request (readmitted but never accounted) — the conservation oracle
// must flag the leak.
func TestElasticMutationDrainLeakCaught(t *testing.T) {
	es := findElasticSeed(t, 40, func(_ *ElasticScenario, res *fleet.Result) bool {
		for _, ts := range res.Tenants {
			if ts.Readmitted > 0 {
				return true
			}
		}
		return false
	})
	problems := checkElastic(es, nil, func(res *fleet.Result) {
		for i := range res.Tenants {
			if res.Tenants[i].Readmitted > 0 {
				res.Tenants[i].Readmitted--
				return
			}
		}
	})
	requireProblem(t, problems, "leaked during drain")
}

// TestElasticMutationStaleCentroidCaught injects an advisor that silently
// stops updating centroids as the mix churns (drift frozen at zero) — the
// recluster-consistency replay must contradict it.
func TestElasticMutationStaleCentroidCaught(t *testing.T) {
	es := findElasticSeed(t, 60, func(es *ElasticScenario, res *fleet.Result) bool {
		return es.Recluster && res.Control.ModelDrift > 0
	})
	problems := checkElastic(es, nil, func(res *fleet.Result) {
		res.Control.ModelDrift = 0
	})
	requireProblem(t, problems, "stale")
}

// TestElasticMutationEstimateSkewCaught injects admission estimates off by
// 2x — the estimate-consistency oracle recomputes them from the trace and
// must flag the skew.
func TestElasticMutationEstimateSkewCaught(t *testing.T) {
	es := GenElasticScenario(0)
	problems := checkElastic(es, func(o *fleet.Options) {
		o.EstimateScale = 2
	}, nil)
	requireProblem(t, problems, "skewed")
}

// TestElasticMutationDroppedEventCaught injects a tracer that swallows
// scale-up events — the event-consistency oracle must notice the timeline
// and the metrics disagree. (Events are attached by the checker itself, so
// the injection corrupts the result's view instead.)
func TestElasticMutationDroppedEventCaught(t *testing.T) {
	es := findElasticSeed(t, 40, func(_ *ElasticScenario, res *fleet.Result) bool {
		return res.Control.ScaleUps > 0
	})
	problems := checkElastic(es, nil, func(res *fleet.Result) {
		res.Control.ScaleUps++
	})
	requireProblem(t, problems, "scale-up event")
}

// TestElasticMutationPeakBelowFinalCaught injects a peak active-core count
// below the final one on a run that scaled down — the peak folds in every
// window and scale-up, so no run may end above it.
func TestElasticMutationPeakBelowFinalCaught(t *testing.T) {
	es := findElasticSeed(t, 40, func(_ *ElasticScenario, res *fleet.Result) bool {
		return res.Control.ScaleDowns > 0
	})
	problems := checkElastic(es, nil, func(res *fleet.Result) {
		res.Control.PeakActiveCores = res.Control.FinalActiveCores - 1
	})
	requireProblem(t, problems, "active-core accounting inconsistent")
}

// TestElasticScenarioRoundTrips guards the repro-file path: a scenario must
// survive JSON round-tripping bit-for-bit so a failing seed replays from
// disk.
func TestElasticScenarioRoundTrips(t *testing.T) {
	es := GenElasticScenario(3)
	j, err := json.Marshal(es)
	if err != nil {
		t.Fatal(err)
	}
	var back ElasticScenario
	if err := json.Unmarshal(j, &back); err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(&back)
	if string(j) != string(j2) {
		t.Fatal("elastic scenario does not round-trip through JSON")
	}
	if problems := CheckElasticScenario(&back); len(problems) > 0 {
		t.Fatalf("round-tripped scenario fails its own check: %v", problems)
	}
}
