package fleet

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"v10/internal/collocate"
	"v10/internal/ctlplane"
	"v10/internal/obs"
	"v10/internal/trace"
)

// elasticOptions is an overloaded single-home-core fleet with two spares:
// four tenants at a rate that saturates one core, so the control loop has a
// clear scale-up signal from the first windows.
func elasticOptions() Options {
	o := quickOptions()
	o.Cores = 3
	o.RateHz = 30_000
	o.Elastic = &ctlplane.Config{MinCores: 1, HysteresisWindows: 1}
	return o
}

// burstOptions is elasticOptions with demand only in the first 40% of the
// horizon: the loop scales up under the burst, then drains back to the
// floor once the fleet idles.
func burstOptions() Options {
	o := elasticOptions()
	o.RateHz = 0
	o.Arrivals = make([][]int64, len(mixedTenants()))
	for t := range o.Arrivals {
		for at := int64(0); at < o.DurationCycles*2/5; at += 20_000 {
			o.Arrivals[t] = append(o.Arrivals[t], at)
		}
	}
	return o
}

func TestElasticOptionValidation(t *testing.T) {
	tenants := mixedTenants()
	for name, mod := range map[string]func(o *Options){
		"negative-cooldown": func(o *Options) {
			o.Elastic = &ctlplane.Config{CooldownCycles: -1}
		},
		"negative-interval": func(o *Options) {
			o.Elastic = &ctlplane.Config{IntervalCycles: -5}
		},
		"min-exceeds-cores": func(o *Options) {
			o.Elastic = &ctlplane.Config{MinCores: 9}
		},
		"inverted-band": func(o *Options) {
			o.Elastic = &ctlplane.Config{UpBelow: 0.99, DownAbove: 0.5}
		},
		"pinned-off-floor": func(o *Options) {
			o.PinnedPlacement = [][]int{{0, 1}, {2, 3}, nil}
		},
		"bad-admission":      func(o *Options) { o.Admission = "psychic" },
		"slowdown-below-one": func(o *Options) { o.SlowdownLimit = 0.5 },
		"recluster-no-model": func(o *Options) { o.Recluster = true },
		"recluster-static": func(o *Options) {
			o.Elastic = nil
			o.Recluster = true
			o.Model = trainTestModel(t, tenants)
		},
		"estimate-scale-negative": func(o *Options) { o.EstimateScale = -1 },
	} {
		o := elasticOptions()
		mod(&o)
		var oe *OptionsError
		if _, err := Run(tenants, o); !errors.As(err, &oe) {
			t.Errorf("%s: want an *OptionsError, got %v", name, err)
		}
	}
}

func TestElasticScaleUpUnderOverload(t *testing.T) {
	res, err := Run(mixedTenants(), elasticOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctl := res.Control
	if ctl == nil {
		t.Fatal("elastic run returned no Control block")
	}
	if ctl.ScaleUps == 0 {
		t.Fatal("overloaded single-core fleet never scaled up")
	}
	if ctl.PeakActiveCores <= ctl.MinCores {
		t.Fatalf("peak active %d not above the floor %d", ctl.PeakActiveCores, ctl.MinCores)
	}
	if len(ctl.Windows) != 16 {
		t.Fatalf("want 16 default windows, got %d", len(ctl.Windows))
	}
	if got := CheckDiscipline(res); len(got) > 0 {
		t.Fatalf("control discipline violated: %v", got)
	}
	static := int64(3) * res.DurationCycles
	if res.ProvisionedCoreCycles >= static {
		t.Fatalf("provisioned %d should be below static %d (spares start off)",
			res.ProvisionedCoreCycles, static)
	}
	var spanSum int64
	for _, sp := range ctl.CoreSpans {
		if sp.EndCycle <= sp.StartCycle {
			t.Fatalf("empty or inverted span %+v", sp)
		}
		spanSum += sp.EndCycle - sp.StartCycle
	}
	if spanSum != res.ProvisionedCoreCycles {
		t.Fatalf("span sum %d != provisioned %d", spanSum, res.ProvisionedCoreCycles)
	}
	// Conservation: every offered request is either completed or shed.
	for _, ts := range res.Tenants {
		if ts.Offered != ts.Completed+ts.Shed {
			t.Fatalf("tenant %d: offered %d != completed %d + shed %d",
				ts.Tenant, ts.Offered, ts.Completed, ts.Shed)
		}
	}
}

// CheckDiscipline adapts the ctlplane oracle to a fleet result for tests.
func CheckDiscipline(res *Result) []string {
	return ctlplane.CheckDiscipline(res.Control.Config, res.Control.MaxCores,
		res.Control.Windows, res.Control.Decisions)
}

func TestElasticScaleDownDrainsAndConserves(t *testing.T) {
	o := burstOptions()
	tenants := mixedTenants()
	var logBuf obs.Log
	o.Tracer = &logBuf
	res, err := Run(tenants, o)
	if err != nil {
		t.Fatal(err)
	}
	ctl := res.Control
	if ctl.ScaleUps == 0 || ctl.ScaleDowns == 0 {
		t.Fatalf("want both scale directions, got ups=%d downs=%d", ctl.ScaleUps, ctl.ScaleDowns)
	}
	if ctl.FinalActiveCores != ctl.MinCores {
		t.Fatalf("idle fleet should end at the floor %d, got %d", ctl.MinCores, ctl.FinalActiveCores)
	}
	if ctl.DrainVictims != ctl.Readmitted+ctl.DrainShed {
		t.Fatalf("drain victims %d != readmitted %d + drain-shed %d",
			ctl.DrainVictims, ctl.Readmitted, ctl.DrainShed)
	}
	for _, ts := range res.Tenants {
		if ts.Offered != ts.Completed+ts.Shed {
			t.Fatalf("tenant %d lost requests: offered %d completed %d shed %d",
				ts.Tenant, ts.Offered, ts.Completed, ts.Shed)
		}
		if ts.Drained != ts.Readmitted+ts.DrainShed {
			t.Fatalf("tenant %d drain accounting broken: %d != %d + %d",
				ts.Tenant, ts.Drained, ts.Readmitted, ts.DrainShed)
		}
	}
	// Typed events must match the recovery metrics.
	counts := map[obs.EventType]int{}
	for _, e := range logBuf.Events {
		counts[e.Type]++
	}
	if counts[obs.EvScaleUp] != ctl.ScaleUps || counts[obs.EvScaleDown] != ctl.ScaleDowns {
		t.Fatalf("scale events (%d up, %d down) disagree with metrics (%d, %d)",
			counts[obs.EvScaleUp], counts[obs.EvScaleDown], ctl.ScaleUps, ctl.ScaleDowns)
	}
	if counts[obs.EvCoreDrain] != ctl.ScaleDowns {
		t.Fatalf("%d core-drain events for %d scale-downs", counts[obs.EvCoreDrain], ctl.ScaleDowns)
	}
	if counts[obs.EvReadmit] != ctl.Readmitted {
		t.Fatalf("%d readmit events for %d readmissions", counts[obs.EvReadmit], ctl.Readmitted)
	}
	if got := CheckDiscipline(res); len(got) > 0 {
		t.Fatalf("control discipline violated: %v", got)
	}
}

// elasticConserves checks what every elastic composition must keep: the
// loop scales both ways, each offered request completes or is shed, each
// drained one is readmitted or shed, and the control loop keeps its
// discipline.
func elasticConserves(t *testing.T, res *Result) {
	t.Helper()
	if res.Control.ScaleUps == 0 || res.Control.ScaleDowns == 0 {
		t.Errorf("want both scale directions, got ups=%d downs=%d", res.Control.ScaleUps, res.Control.ScaleDowns)
	}
	for _, ts := range res.Tenants {
		if ts.Offered != ts.Completed+ts.Shed {
			t.Errorf("tenant %d lost requests: offered %d completed %d shed %d",
				ts.Tenant, ts.Offered, ts.Completed, ts.Shed)
		}
		if ts.Drained != ts.Readmitted+ts.DrainShed {
			t.Errorf("tenant %d drain accounting broken: %d != %d + %d",
				ts.Tenant, ts.Drained, ts.Readmitted, ts.DrainShed)
		}
	}
	ctl := res.Control
	if ctl.DrainVictims != ctl.Readmitted+ctl.DrainShed {
		t.Errorf("drain victims %d != readmitted %d + drain-shed %d",
			ctl.DrainVictims, ctl.Readmitted, ctl.DrainShed)
	}
	if got := CheckDiscipline(res); len(got) > 0 {
		t.Errorf("control discipline violated: %v", got)
	}
	if res.Completed == 0 {
		t.Error("elastic fleet completed nothing")
	}
}

// TestElasticWithVNPUSlices: autoscaling composes with vNPU slicing, and
// every core that ran, spares included, reports its slices.
func TestElasticWithVNPUSlices(t *testing.T) {
	o := burstOptions()
	o.Slices = &SliceOptions{Templates: halves()}
	res, err := Run(mixedTenants(), o)
	if err != nil {
		t.Fatal(err)
	}
	elasticConserves(t, res)
	ran := 0
	for _, cr := range res.Cores {
		if cr.Run == nil {
			continue
		}
		ran++
		if len(cr.Slices) != len(o.Slices.Templates) || len(cr.SliceOf) != len(cr.Tenants) {
			t.Errorf("core %d ran with %d slice stats and %d slice assignments for %d tenants",
				cr.Core, len(cr.Slices), len(cr.SliceOf), len(cr.Tenants))
		}
	}
	if ran < 2 {
		t.Fatalf("only %d cores ran; the spares never served", ran)
	}
}

// TestElasticWithPinnedPlacement: autoscaling composes with a pinned
// placement on the always-on cores, and rejects homes off that floor with a
// typed error.
func TestElasticWithPinnedPlacement(t *testing.T) {
	o := burstOptions()
	o.Elastic.MinCores = 2
	o.PinnedPlacement = [][]int{{0, 2}, {1, 3}, nil}
	res, err := Run(mixedTenants(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Placement, o.PinnedPlacement) {
		t.Fatalf("placement %v, want the pinned %v", res.Placement, o.PinnedPlacement)
	}
	elasticConserves(t, res)

	o.PinnedPlacement = [][]int{{0, 2}, {1}, {3}}
	_, err = Run(mixedTenants(), o)
	var off *PinnedOffFloorError
	if !errors.As(err, &off) || *off != (PinnedOffFloorError{Core: 2, Tenant: 3, MinCores: 2}) {
		t.Fatalf("off-floor pin: got %v, want a PinnedOffFloorError for tenant 3 on core 2", err)
	}
}

func TestElasticDeterministicRerun(t *testing.T) {
	a, err := Run(mixedTenants(), elasticOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mixedTenants(), elasticOptions())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) || !reflect.DeepEqual(a, b) {
		t.Fatal("elastic rerun is not bit-identical")
	}
}

// TestStatsWindowsCoreAware is the regression test for the fixed-core-set
// stats bug: with a scale-up mid-run, per-window goodput must be attributed
// against the cores active in each window, not the static fleet size.
func TestStatsWindowsCoreAware(t *testing.T) {
	o := elasticOptions()
	res, err := Run(mixedTenants(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Control.ScaleUps == 0 {
		t.Fatal("scenario must scale up mid-run for this regression test")
	}
	firstUp := res.Control.Decisions[0].AtCycle
	for _, ts := range res.Tenants {
		if len(ts.Windows) == 0 {
			t.Fatalf("tenant %d: no stats windows despite autoscaling", ts.Tenant)
		}
		sumC, sumG := 0, 0
		for _, w := range ts.Windows {
			sumC += w.Completed
			sumG += w.Good
			if w.StartCycle >= o.DurationCycles || w.EndCycle <= w.StartCycle {
				t.Fatalf("tenant %d window %d: bad bounds %+v", ts.Tenant, w.Window, w)
			}
			if w.EndCycle <= firstUp && w.ActiveCores != res.Control.MinCores {
				t.Fatalf("window [%d,%d) precedes the first scale-up at %d but claims %d active cores",
					w.StartCycle, w.EndCycle, firstUp, w.ActiveCores)
			}
			if w.ActiveCores > 0 {
				wantPer := w.GoodputHz / float64(w.ActiveCores)
				if w.GoodputPerCoreHz != wantPer {
					t.Fatalf("window %d: per-core goodput %v, want %v", w.Window, w.GoodputPerCoreHz, wantPer)
				}
			}
		}
		if sumC != ts.Completed || sumG != ts.Good {
			t.Fatalf("tenant %d: window sums (%d, %d) != totals (%d, %d)",
				ts.Tenant, sumC, sumG, ts.Completed, ts.Good)
		}
	}
	// At least one later window must see the grown fleet.
	grew := false
	for _, w := range res.Tenants[0].Windows {
		if w.ActiveCores > res.Control.MinCores {
			grew = true
		}
	}
	if !grew {
		t.Fatal("no stats window observed the scaled-up core set")
	}
}

func TestPredictiveAdmissionSelfBounds(t *testing.T) {
	o := elasticOptions()
	o.Admission = AdmitPredictive
	o.SlowdownLimit = 2 // tight: roughly one request of wait tolerated
	tight, err := Run(mixedTenants(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.SlowdownLimit = 1000 // effectively unbounded
	loose, err := Run(mixedTenants(), o)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Shed == 0 {
		t.Fatal("tight slowdown limit shed nothing under overload")
	}
	if loose.Shed >= tight.Shed {
		t.Fatalf("loosening the slowdown limit did not reduce shedding: %d -> %d",
			tight.Shed, loose.Shed)
	}
	if loose.Admitted <= tight.Admitted {
		t.Fatalf("loose limit admitted %d <= tight %d", loose.Admitted, tight.Admitted)
	}
}

func TestQueueBoundDefaultMatchesLegacy(t *testing.T) {
	// The Admission/SlowdownLimit/EstimateScale defaults must leave the
	// static dispatcher bit-identical to an options struct that never heard
	// of them.
	base, err := Run(mixedTenants(), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := quickOptions()
	o.Admission = AdmitQueueBound
	o.EstimateScale = 1
	o.SlowdownLimit = 10
	explicit, err := Run(mixedTenants(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, explicit) {
		t.Fatal("explicit admission defaults diverge from the legacy path")
	}
}

// driftTenants is a mix with within-cluster variation: unlike mixedTenants
// (two identical tenants per family), each observation here sits off its
// cluster centroid, so online updates produce nonzero drift.
func driftTenants() []*trace.Workload {
	return []*trace.Workload{
		synthetic("sa0", 4000, 10, 6),
		synthetic("sa1", 3400, 60, 7),
		synthetic("vu0", 10, 4000, 6),
		synthetic("vu1", 60, 3400, 7),
	}
}

// reclusterOptions serves the tenants under the advisor policy with online
// re-clustering enabled.
func reclusterOptions(t *testing.T, tenants []*trace.Workload) Options {
	o := elasticOptions()
	o.Policy = PolicyAdvisor
	o.Model = trainTestModel(t, tenants)
	o.Recluster = true
	return o
}

func TestReclusterAccumulatesDriftWithoutMutatingCaller(t *testing.T) {
	tenants := driftTenants()
	o := reclusterOptions(t, tenants)
	orig := o.Model
	res, err := Run(tenants, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Control.ModelDrift <= 0 {
		t.Fatal("online re-clustering accumulated no centroid drift under live traffic")
	}
	if len(res.Control.ObservedTenants) != len(res.Control.Windows) {
		t.Fatalf("observed-tenant record has %d windows, signals have %d",
			len(res.Control.ObservedTenants), len(res.Control.Windows))
	}
	if got := checkReclusterConsistency(res, orig, tenants, o); got != "" {
		t.Fatal(got)
	}
	// The caller's model must be untouched: a second run from the same
	// original model reproduces the result bit-identically.
	res2, err := Run(tenants, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("rerun from the shared trained model diverged: online updates leaked into the caller's model")
	}
}

// checkReclusterConsistency is the stale-centroid oracle: replaying the
// recorded per-window observations against a fresh clone of the original
// model must reproduce Control.ModelDrift exactly (same fold order, same
// float math).
func checkReclusterConsistency(res *Result, orig *collocate.Model, tenants []*trace.Workload, o Options) string {
	clone := orig.CloneForOnline()
	want := 0.0
	for _, window := range res.Control.ObservedTenants {
		// Per-window inner sum first, mirroring the dispatcher's fold order —
		// float addition is not associative.
		winDrift := 0.0
		for _, tn := range window {
			f := collocate.ExtractFeatures(tenants[tn], o.Config, withProfileDefault(o.ProfileRequests))
			_, moved := clone.Observe(f)
			winDrift += moved
		}
		want += winDrift
	}
	if res.Control.ModelDrift != want {
		return "recluster inconsistency: recorded drift does not match an independent replay of the observations (stale or extra centroid updates)"
	}
	return ""
}

func withProfileDefault(n int) int {
	if n <= 0 {
		return 3
	}
	return n
}

// TestMutationStaleCentroidCaught injects the skipModelUpdates control-plane
// bug — churn happens but the centroids never move — and proves the
// recluster-consistency oracle catches it.
func TestMutationStaleCentroidCaught(t *testing.T) {
	tenants := driftTenants()
	o := reclusterOptions(t, tenants)
	orig := o.Model
	o.skipModelUpdates = true
	res, err := Run(tenants, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Control.ModelDrift != 0 {
		t.Fatalf("mutant still accumulated drift %v", res.Control.ModelDrift)
	}
	problem := checkReclusterConsistency(res, orig, tenants, o)
	if problem == "" {
		t.Fatal("stale-centroid mutant slipped past the recluster-consistency oracle")
	}
	if !strings.Contains(problem, "stale") {
		t.Fatalf("unexpected problem wording: %s", problem)
	}
}

// TestMutationEstimateScaleCaught doubles every service estimate (the
// admission-estimate-off-by-2x bug) and proves the estimate-consistency
// oracle — SLOCycles must equal SLOFactor × the independently recomputed
// estimate — catches it.
func TestMutationEstimateScaleCaught(t *testing.T) {
	tenants := mixedTenants()
	check := func(res *Result, o Options) bool {
		pr := withProfileDefault(o.ProfileRequests)
		slo := o.SLOFactor
		if slo == 0 {
			slo = 10
		}
		for i, ts := range res.Tenants {
			if ts.SLOCycles != slo*EstimateServeCycles(tenants[i], pr) {
				return false
			}
		}
		return true
	}
	o := quickOptions()
	res, err := Run(tenants, o)
	if err != nil {
		t.Fatal(err)
	}
	if !check(res, o) {
		t.Fatal("clean run failed the estimate-consistency oracle")
	}
	o.EstimateScale = 2
	mut, err := Run(tenants, o)
	if err != nil {
		t.Fatal(err)
	}
	if check(mut, o) {
		t.Fatal("2x estimate mutant slipped past the estimate-consistency oracle")
	}
}
