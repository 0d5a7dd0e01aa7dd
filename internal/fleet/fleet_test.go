package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"v10/internal/collocate"
	"v10/internal/ctlplane"
	"v10/internal/faults"
	"v10/internal/mathx"
	"v10/internal/metrics"
	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/sched"
	"v10/internal/trace"
	"v10/internal/workload"
)

var cfg = npu.DefaultConfig()

// synthetic builds a deterministic workload: pairs alternating SA/VU ops.
func synthetic(name string, saLen, vuLen int64, pairs int) *trace.Workload {
	return trace.NewWorkload(name, name, 1, func(int) *trace.Graph {
		g := &trace.Graph{}
		for i := 0; i < pairs; i++ {
			sa := trace.Op{ID: len(g.Ops), Kind: trace.KindSA, Compute: saLen}
			if len(g.Ops) > 0 {
				sa.Deps = []int{len(g.Ops) - 1}
			}
			g.Ops = append(g.Ops, sa)
			g.Ops = append(g.Ops, trace.Op{
				ID: len(g.Ops), Kind: trace.KindVU, Compute: vuLen,
				Deps: []int{len(g.Ops) - 1},
			})
		}
		return g
	})
}

// mixedTenants is two SA-heavy and two VU-heavy synthetic tenants, enough
// contrast for every placement policy to act on.
func mixedTenants() []*trace.Workload {
	return []*trace.Workload{
		synthetic("sa0", 4000, 10, 6),
		synthetic("vu0", 10, 4000, 6),
		synthetic("sa1", 4000, 10, 6),
		synthetic("vu1", 10, 4000, 6),
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"advisor", PolicyAdvisor, true},
		{"least-loaded", PolicyLeastLoaded, true},
		{"random", PolicyRandom, true},
		{"", "", false},
		{"Advisor", "", false},
		{"round-robin", "", false},
	} {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	base := Options{Config: cfg}
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"negative cores", func(o *Options) { o.Cores = -1 }},
		{"unknown scheme", func(o *Options) { o.Scheme = "V11" }},
		{"unknown policy", func(o *Options) { o.Policy = "greedy" }},
		{"advisor without model", func(o *Options) { o.Policy = PolicyAdvisor }},
		{"negative rate", func(o *Options) { o.RateHz = -5 }},
		{"NaN rate", func(o *Options) { o.RateHz = math.NaN() }},
		{"negative duration", func(o *Options) { o.DurationCycles = -1 }},
		{"negative queue limit", func(o *Options) { o.QueueLimit = -2 }},
		{"negative SLO factor", func(o *Options) { o.SLOFactor = -1 }},
	} {
		o := base
		tc.mutate(&o)
		if _, err := Run(mixedTenants(), o); err == nil {
			t.Errorf("%s: Run accepted invalid options", tc.name)
		}
	}
	if _, err := Run(nil, base); err == nil {
		t.Error("Run accepted an empty tenant set")
	}
}

func TestPlaceLeastLoadedBalances(t *testing.T) {
	// LPT greedy over estimates {100, 90, 10, 10} on 2 cores: heaviest first,
	// always onto the lighter core, ties by index.
	profs := []tenantProfile{{estCycles: 100}, {estCycles: 90}, {estCycles: 10}, {estCycles: 10}}
	homes := place(profs, Options{Cores: 2, Policy: PolicyLeastLoaded}, nil)
	want := [][]int{{0, 3}, {1, 2}}
	if !reflect.DeepEqual(homes, want) {
		t.Fatalf("placement = %v, want %v", homes, want)
	}
}

func TestPlaceRandomCoversAllTenants(t *testing.T) {
	profs := make([]tenantProfile, 9)
	o := Options{Cores: 3, Policy: PolicyRandom, Seed: 7}
	h1 := place(profs, o, newPlacementRNG(o))
	h2 := place(profs, o, newPlacementRNG(o))
	if !reflect.DeepEqual(h1, h2) {
		t.Fatalf("same seed placed differently: %v vs %v", h1, h2)
	}
	seen := make([]int, len(profs))
	for _, group := range h1 {
		for _, tnt := range group {
			seen[tnt]++
		}
	}
	for tnt, n := range seen {
		if n != 1 {
			t.Fatalf("tenant %d placed %d times in %v", tnt, n, h1)
		}
	}
}

// trainTestModel trains a collocation model on the mixed tenant set with a
// fixed pair-performance function: mixed SA/VU pairs are strongly beneficial
// (1.6×), same-kind pairs are not (1.0× < the 1.3× threshold).
func trainTestModel(t *testing.T, tenants []*trace.Workload) *collocate.Model {
	t.Helper()
	feats := make([]collocate.Features, len(tenants))
	for i, w := range tenants {
		feats[i] = collocate.ExtractFeatures(w, cfg, 2)
	}
	perf := func(a, b *trace.Workload) (float64, error) {
		if (a.Name[:2] == "sa") == (b.Name[:2] == "sa") {
			return 1.0, nil
		}
		return 1.6, nil
	}
	m, err := collocate.Train(tenants, feats, perf, collocate.TrainConfig{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPlaceAdvisorPairsCompatibleTenants(t *testing.T) {
	tenants := mixedTenants()
	model := trainTestModel(t, tenants)
	o := Options{Config: cfg, Cores: 2, Policy: PolicyAdvisor, Model: model, ProfileRequests: 2}
	o, err := o.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	profs := profileTenants(tenants, o)
	feats := features(profs)
	// Model sanity first: the fake perf function must survive training.
	if fit := model.GroupFit(feats, []int{0}, 1); fit <= 0 {
		t.Fatalf("mixed pair predicted incompatible (fit %v)", fit)
	}
	if fit := model.GroupFit(feats, []int{0}, 2); fit > 0 {
		t.Fatalf("same-kind pair predicted compatible (fit %v)", fit)
	}
	homes := place(profs, o, newPlacementRNG(o))
	for c, group := range homes {
		if len(group) != 2 {
			t.Fatalf("core %d hosts %v, want exactly 2 tenants (placement %v)", c, group, homes)
		}
		// Tenants 0,2 are SA-heavy; 1,3 VU-heavy. Each core must mix kinds.
		sa := 0
		for _, tnt := range group {
			if tnt%2 == 0 {
				sa++
			}
		}
		if sa != 1 {
			t.Fatalf("core %d hosts %v — same-kind pairing despite advisor (placement %v)", c, group, homes)
		}
	}
}

func TestCoreQueueAdmitAndDrain(t *testing.T) {
	var q coreQueue
	q.admit(0, 100, 0)
	q.admit(0, 100, 1)
	want := []queueEntry{{done: 100, tenant: 0}, {done: 200, tenant: 1}}
	if q.busyTil != 200 || !reflect.DeepEqual(q.pending, want) {
		t.Fatalf("after two admits: busyTil %d pending %v", q.busyTil, q.pending)
	}
	q.drain(150)
	if !reflect.DeepEqual(q.pending, want[1:]) {
		t.Fatalf("after drain(150): pending %v", q.pending)
	}
	// A zero-cost admit still occupies at least one cycle.
	q.drain(1000)
	q.admit(1000, 0, 0)
	if len(q.pending) != 1 || q.pending[0].done != 1001 {
		t.Fatalf("zero-cost admit: pending %v", q.pending)
	}
}

// floodArrivals is n back-to-back arrivals of tenant 0 at cycles 1..n.
func floodArrivals(n int) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{at: int64(i + 1), tenant: 0}
	}
	return out
}

func TestDispatchEnforcesQueueBound(t *testing.T) {
	// One core, queue bound 3, service estimates too large to drain: of six
	// back-to-back arrivals exactly 3 are admitted and 3 shed.
	o := Options{Cores: 1, QueueLimit: 3, Policy: PolicyLeastLoaded}
	profs := []tenantProfile{{estCycles: 1e12}}
	disp := dispatch(nil, floodArrivals(6), [][]int{{0}}, profs, o)
	if got := len(disp.admitted[0][0]); got != 3 {
		t.Fatalf("admitted %d, want 3", got)
	}
	if led := disp.tenants[0]; led.Shed != 3 || led.Spilled != 0 || led.Offered != 6 {
		t.Fatalf("shed %d spilled %d offered %d, want 3/0/6",
			led.Shed, led.Spilled, led.Offered)
	}
}

func TestDispatchSpillsThenSheds(t *testing.T) {
	// Two cores with bound 1: the second arrival spills to the empty peer,
	// the third sheds. NoSpill sheds immediately instead.
	o := Options{Cores: 2, QueueLimit: 1, Policy: PolicyLeastLoaded}
	profs := []tenantProfile{{estCycles: 1e12}, {estCycles: 1e12}}
	homes := [][]int{{0}, {1}}
	disp := dispatch(nil, floodArrivals(3), homes, profs, o)
	if !reflect.DeepEqual(disp.admitted[0][0], []int64{1}) ||
		!reflect.DeepEqual(disp.admitted[1][0], []int64{2}) {
		t.Fatalf("admitted = %v", disp.admitted)
	}
	if led := disp.tenants[0]; led.Spilled != 1 || led.Shed != 1 {
		t.Fatalf("spilled %d shed %d, want 1/1", led.Spilled, led.Shed)
	}

	o.NoSpill = true
	disp = dispatch(nil, floodArrivals(3), homes, profs, o)
	if led := disp.tenants[0]; led.Spilled != 0 || led.Shed != 2 {
		t.Fatalf("NoSpill: spilled %d shed %d, want 0/2", led.Spilled, led.Shed)
	}
}

func TestDispatchDrainsFinishedWork(t *testing.T) {
	// Small service estimates and spaced arrivals: the virtual queue drains
	// between arrivals, so nothing sheds despite a bound of 1.
	o := Options{Cores: 1, QueueLimit: 1, Policy: PolicyLeastLoaded}
	profs := []tenantProfile{{estCycles: 10}}
	arrivals := []arrival{{at: 0, tenant: 0}, {at: 100, tenant: 0}, {at: 200, tenant: 0}}
	disp := dispatch(nil, arrivals, [][]int{{0}}, profs, o)
	if disp.tenants[0].Shed != 0 || len(disp.admitted[0][0]) != 3 {
		t.Fatalf("shed %d admitted %d, want 0/3", disp.tenants[0].Shed, len(disp.admitted[0][0]))
	}
}

func mustGenArrivals(tb testing.TB, tenants int, o Options) []arrival {
	tb.Helper()
	arrivals, err := genArrivals(tenants, o)
	if err != nil {
		tb.Fatal(err)
	}
	return arrivals
}

func TestGenArrivalsWindowAndOrdering(t *testing.T) {
	o, err := Options{Config: cfg, RateHz: 5000, DurationCycles: 2_000_000, Seed: 11}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	arrivals := mustGenArrivals(t, 3, o)
	if len(arrivals) == 0 {
		t.Fatal("no arrivals generated")
	}
	prev := int64(-1)
	for _, a := range arrivals {
		if a.at < 0 || a.at >= o.DurationCycles {
			t.Fatalf("arrival at %d outside [0, %d)", a.at, o.DurationCycles)
		}
		if a.at < prev {
			t.Fatalf("arrivals out of order: %d after %d", a.at, prev)
		}
		prev = a.at
	}
	// Per-tenant streams are independent of fleet size: tenant 0's stream in
	// a 1-tenant fleet equals its stream in the 3-tenant fleet.
	solo := mustGenArrivals(t, 1, o)
	var t0 []arrival
	for _, a := range arrivals {
		if a.tenant == 0 {
			t0 = append(t0, a)
		}
	}
	if !reflect.DeepEqual(solo, t0) {
		t.Fatal("tenant 0's arrival stream depends on fleet size")
	}
}

// quickOptions is a small but non-trivial fleet configuration: high rate over
// a short window so a handful of requests queue and complete fast.
func quickOptions() Options {
	return Options{
		Config:         cfg,
		Cores:          2,
		Policy:         PolicyLeastLoaded,
		RateHz:         3000,
		DurationCycles: 3_000_000,
		Seed:           5,
	}
}

func TestRunDeterministicAcrossParallelWidths(t *testing.T) {
	results := make([]*Result, 3)
	for i, par := range []int{1, 4, 0} {
		o := quickOptions()
		o.Parallel = par
		res, err := Run(mixedTenants(), o)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	want, err := json.Marshal(results[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results[1:] {
		got, _ := json.Marshal(res)
		if string(got) != string(want) {
			t.Fatalf("Parallel width changed the result (run %d):\n%s\nvs\n%s", i+1, got, want)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("results differ outside the JSON projection (per-core RunResults)")
	}
}

func TestHeaviestFirst(t *testing.T) {
	profs := []tenantProfile{{opsPerReq: 10}, {opsPerReq: 2}, {opsPerReq: 5}}
	job := func(roster []int, admitted ...int) coreJob {
		j := coreJob{roster: roster}
		for _, n := range admitted {
			j.schedules = append(j.schedules, make([]int64, n))
		}
		return j
	}
	jobs := []coreJob{
		job([]int{1}, 10),         // 20
		job([]int{0}, 50),         // 500, but failed: already simulated
		job(nil),                  // empty roster
		job([]int{2, 1}, 2, 5),    // 10 + 10 = 20, ties core 0
		job([]int{0, 2}, 3, 40),   // 30 + 200 = 230
		job([]int{1}, 0),          // a roster with nothing admitted
		job([]int{2, 0}, 100, 20), // 500 + 200 = 700
	}
	done := make([]*coreOut, len(jobs))
	done[1] = &coreOut{}
	got := heaviestFirst(jobs, done, profs)
	if want := []int{6, 4, 0, 3, 5, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("heaviestFirst = %v, want %v", got, want)
	}
}

// TestHotCoreDeterministicAcrossParallelWidths runs a fleet whose last core
// carries most of the work, so heaviestFirst hands it out first and the
// workers finish cores out of index order. Every Result, per-core RunResults
// included, must equal the one from a serial traced run, which streams the
// cores in index order, with and without a failed core.
func TestHotCoreDeterministicAcrossParallelWidths(t *testing.T) {
	const duration = 3_000_000
	tenants := append(mixedTenants(), synthetic("sa2", 4000, 10, 6), synthetic("vu2", 10, 4000, 6))
	arrivals := make([][]int64, len(tenants))
	for tn := range arrivals {
		gap := int64(300_000)
		if tn >= 4 {
			gap = 60_000 // the hot tenants, both homed on core 2
		}
		for at := int64(tn) * 1000; at < duration; at += gap {
			arrivals[tn] = append(arrivals[tn], at)
		}
	}
	for name, f := range map[string]*FaultOptions{
		"plain":       nil,
		"failed core": mustFaults(t, "fail@0:1000000", 100_000),
	} {
		t.Run(name, func(t *testing.T) {
			widths := []int{1, 1, 2, 3}
			var results []*Result
			for i, par := range widths {
				o := Options{
					Config: cfg, Cores: 3, DurationCycles: duration, Seed: 5,
					Arrivals:        arrivals,
					PinnedPlacement: [][]int{{0, 1}, {2, 3}, {4, 5}},
					Faults:          f,
					Parallel:        par,
				}
				if i == 0 {
					o.Tracer = &obs.Log{}
				}
				res, err := Run(tenants, o)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
			}
			hot := results[0].Cores[2].Admitted
			for c, cr := range results[0].Cores[:2] {
				if cr.Admitted >= hot {
					t.Fatalf("core %d admitted %d, not below the hot core's %d", c, cr.Admitted, hot)
				}
			}
			for i, res := range results[1:] {
				if !reflect.DeepEqual(results[0], res) {
					t.Fatalf("untraced run at Parallel %d differs from the traced serial run", widths[i+1])
				}
			}
		})
	}
}

func TestRunAccounting(t *testing.T) {
	res, err := Run(mixedTenants(), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 {
		t.Fatal("no offered requests — load too low to test anything")
	}
	var offered, admitted, shed, completed, good int
	for _, ts := range res.Tenants {
		if ts.Offered != ts.Admitted+ts.Shed {
			t.Fatalf("tenant %d: offered %d != admitted %d + shed %d",
				ts.Tenant, ts.Offered, ts.Admitted, ts.Shed)
		}
		// V10 cores run every admitted request to completion.
		if ts.Completed != ts.Admitted {
			t.Fatalf("tenant %d: completed %d != admitted %d", ts.Tenant, ts.Completed, ts.Admitted)
		}
		if ts.Good > ts.Completed {
			t.Fatalf("tenant %d: good %d > completed %d", ts.Tenant, ts.Good, ts.Completed)
		}
		offered += ts.Offered
		admitted += ts.Admitted
		shed += ts.Shed
		completed += ts.Completed
		good += ts.Good
	}
	if res.Offered != offered || res.Admitted != admitted || res.Shed != shed ||
		res.Completed != completed || res.Good != good {
		t.Fatalf("aggregates %d/%d/%d/%d/%d don't match tenant sums %d/%d/%d/%d/%d",
			res.Offered, res.Admitted, res.Shed, res.Completed, res.Good,
			offered, admitted, shed, completed, good)
	}
	var coreAdmitted int
	for _, cr := range res.Cores {
		coreAdmitted += cr.Admitted
	}
	if coreAdmitted != res.Admitted {
		t.Fatalf("Σ core admitted %d != fleet admitted %d", coreAdmitted, res.Admitted)
	}
}

func TestTenantStatsPercentileFixture(t *testing.T) {
	// Hand-computed: latencies {100, 200, 1000}, SLO 5×100 = 500 → 2 good;
	// p95 = 200·0.1 + 1000·0.9 = 920; p99 = 200·0.02 + 1000·0.98 = 984;
	// window 700e6 cycles at 700 MHz = 1 s → goodput 2 req/s.
	o, err := Options{Config: cfg, Cores: 1, SLOFactor: 5, DurationCycles: 700_000_000}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	profs := []tenantProfile{{estCycles: 100}}
	disp := &dispatchOutcome{
		admitted: [][][]int64{{{0, 1, 2}}},
		tenants:  []TenantStats{{Offered: 4, Admitted: 3, Shed: 1}},
	}
	jobs := []coreJob{{roster: []int{0}, admitted: 3}}
	outs := []*coreOut{{res: &metrics.RunResult{
		Workloads: []*metrics.WorkloadStats{{LatencyCycles: []float64{100, 200, 1000}}},
	}}}
	stats := tenantStats(profs, disp, jobs, outs, o)
	ts := stats[0]
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if ts.Completed != 3 || ts.Good != 2 || ts.Shed != 1 || ts.Admitted != 3 {
		t.Fatalf("counts: completed %d good %d shed %d admitted %d",
			ts.Completed, ts.Good, ts.Shed, ts.Admitted)
	}
	check("SLOCycles", ts.SLOCycles, 500)
	check("avg", ts.AvgLatencyCycles, (100+200+1000)/3.0)
	check("p95", ts.P95LatencyCycles, 920)
	check("p99", ts.P99LatencyCycles, 984)
	check("goodput", ts.GoodputHz, 2)
	check("shed rate", ts.ShedRate, 0.25)
}

func TestPMTSchemeServesFleet(t *testing.T) {
	o := quickOptions()
	o.Scheme = "PMT"
	res, err := Run(mixedTenants(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range res.Tenants {
		// PMT cores replay their admitted arrivals, like V10 cores.
		if ts.Completed > ts.Admitted {
			t.Fatalf("tenant %d: completed %d > admitted %d", ts.Tenant, ts.Completed, ts.Admitted)
		}
	}
	if res.Completed == 0 {
		t.Fatal("PMT fleet completed nothing")
	}
}

// TestPMTComposes runs PMT fleets with vNPU slices, injected faults and the
// elastic control plane: every combination serves traffic and conserves
// offered = completed + shed.
func TestPMTComposes(t *testing.T) {
	for name, mod := range map[string]func(o *Options){
		"slices": func(o *Options) { o.Slices = &SliceOptions{Templates: halves()} },
		"faults": func(o *Options) {
			o.Cores = 3
			o.Faults = &FaultOptions{HeartbeatCycles: 100_000, Schedule: &faults.Schedule{Faults: []faults.Fault{
				{Kind: faults.KindFail, Core: 0, At: 1_000_000},
				{Kind: faults.KindStall, Core: 1, At: 500_000, Dur: 200_000},
			}}}
		},
		"elastic": func(o *Options) {
			o.Cores = 3
			o.Elastic = &ctlplane.Config{MinCores: 1, HysteresisWindows: 1}
		},
	} {
		t.Run(name, func(t *testing.T) {
			o := quickOptions()
			o.Scheme = "PMT"
			mod(&o)
			res, err := Run(mixedTenants(), o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 {
				t.Fatal("PMT fleet completed nothing")
			}
			if res.Offered != res.Completed+res.Shed {
				t.Fatalf("offered %d != completed %d + shed %d", res.Offered, res.Completed, res.Shed)
			}
		})
	}
}

// newPlacementRNG mirrors Run's placement RNG derivation for direct place()
// tests.
func newPlacementRNG(o Options) *mathx.RNG { return mathx.NewRNG(o.Seed + 0x9f1e) }

// TestGenArrivalsRealizedRate is the satellite-1 regression: the old
// truncate-and-clamp gap draw inflated the realized rate above RateHz
// (≈ +11% at a 3-cycle mean gap). Float64 accumulation must track nominal.
func TestGenArrivalsRealizedRate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rateHz  float64
		tenants int
		tol     float64
	}{
		{"serving regime", 5000, 16, 0.03},
		// Mean gap 700e6/233e6 ≈ 3 cycles: deep in the old clamp's bias
		// regime, where truncation alone added ~10%.
		{"cycle-scale gaps", 233e6, 2, 0.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := Options{Config: cfg, RateHz: tc.rateHz, DurationCycles: 2_000_000, Seed: 3}.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			got := float64(len(mustGenArrivals(t, tc.tenants, o)))
			want := tc.rateHz / cfg.FrequencyHz * float64(o.DurationCycles) * float64(tc.tenants)
			if rel := (got - want) / want; rel < -tc.tol || rel > tc.tol {
				t.Errorf("realized %v arrivals, want %v ±%v%% (rel err %+.4f)",
					got, want, 100*tc.tol, rel)
			}
		})
	}
}

func TestArrivalsOptionValidation(t *testing.T) {
	base := quickOptions()
	base.RateHz = 0

	o := base
	o.Arrivals = [][]int64{{0, 100}, {50}, {}, {200}}
	o.RateHz = 60
	var ae *sched.ArrivalError
	if _, err := Run(mixedTenants(), o); !errors.As(err, &ae) || ae.Workload != -1 {
		t.Fatalf("Arrivals+RateHz: err = %v, want option-level *sched.ArrivalError", err)
	}

	o = base
	o.Arrivals = [][]int64{{0, 100}, {50, 20}, {}, {200}}
	if _, err := Run(mixedTenants(), o); !errors.As(err, &ae) || ae.Workload != 1 || ae.Index != 1 {
		t.Fatalf("decreasing schedule: err = %v, want *sched.ArrivalError{1, 1}", err)
	}

	o = base
	o.Arrivals = [][]int64{{-5}, {}, {}, {}}
	if _, err := Run(mixedTenants(), o); !errors.As(err, &ae) || ae.Value != -5 {
		t.Fatalf("negative arrival: err = %v, want *sched.ArrivalError{Value: -5}", err)
	}

	o = base
	o.Arrivals = [][]int64{{0}}
	if _, err := Run(mixedTenants(), o); !errors.As(err, &ae) || ae.Workload != -1 {
		t.Fatalf("length mismatch: err = %v, want option-level *sched.ArrivalError", err)
	}
}

// TestPoissonArrivalCap runs one tenant whose Poisson stream draws about
// 2.1M arrivals, just past workload.MaxArrivalsPerTenant: Run must refuse it
// with a tenant-level *sched.ArrivalError once the cap is crossed, before
// any dispatch or simulation allocates per-request state.
func TestPoissonArrivalCap(t *testing.T) {
	o := quickOptions()
	o.DurationCycles = 3_000_000
	o.RateHz = 1.05 * workload.MaxArrivalsPerTenant * cfg.FrequencyHz / float64(o.DurationCycles)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run([]*trace.Workload{synthetic("flood", 100, 100, 1)}, o)
	runtime.ReadMemStats(&after)
	var ae *sched.ArrivalError
	if !errors.As(err, &ae) || ae.Workload != 0 || ae.Index != -1 {
		t.Fatalf("err = %v, want *sched.ArrivalError for tenant 0", err)
	}
	// The capped arrival slice is 2M 16-byte entries (32 MB), sized once
	// up front instead of grown by append.
	if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 64 {
		t.Fatalf("a refused run allocated %d MB", mb)
	}
}

// TestArrivalsDriveFleet runs explicit schedules end-to-end: offered counts
// match the schedules exactly (no Poisson draw anywhere), an empty schedule
// is a legal idle tenant, and the run is deterministic.
func TestArrivalsDriveFleet(t *testing.T) {
	o := quickOptions()
	o.RateHz = 0
	o.Arrivals = [][]int64{
		{0, 400_000, 800_000, 1_200_000},
		{100_000, 500_000},
		{},
		{250_000, 250_000, 900_000},
	}
	res, err := Run(mixedTenants(), o)
	if err != nil {
		t.Fatal(err)
	}
	for tn, want := range []int{4, 2, 0, 3} {
		if got := res.Tenants[tn].Offered; got != want {
			t.Errorf("tenant %d offered %d requests, want %d", tn, got, want)
		}
	}
	if res.Completed == 0 || res.Completed != res.Admitted {
		t.Errorf("completed %d of %d admitted — schedules should drain fully", res.Completed, res.Admitted)
	}
	res2, err := Run(mixedTenants(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != res2.TotalCycles || !reflect.DeepEqual(res.Tenants, res2.Tenants) {
		t.Fatal("explicit-arrivals fleet run is nondeterministic")
	}
}

// TestWorkloadEngineFeedsFleet wires workload.Engine schedules into the
// fleet — the tentpole's integration seam.
func TestWorkloadEngineFeedsFleet(t *testing.T) {
	o := quickOptions()
	o.RateHz = 0
	eng := workload.Engine{Config: cfg, HorizonCycles: o.DurationCycles, Seed: o.Seed}
	specs := []workload.Spec{
		{Process: workload.Poisson, RateHz: 2000},
		{Process: workload.MMPP, RateHz: 2000},
		{Process: workload.Diurnal, RateHz: 2000},
		{Process: workload.Uniform, RateHz: 2000, StartCycle: 1_000_000},
	}
	arr, err := eng.Schedules(specs)
	if err != nil {
		t.Fatal(err)
	}
	o.Arrivals = arr
	res, err := Run(mixedTenants(), o)
	if err != nil {
		t.Fatal(err)
	}
	for tn := range specs {
		if res.Tenants[tn].Offered != len(arr[tn]) {
			t.Errorf("tenant %d offered %d, want schedule length %d",
				tn, res.Tenants[tn].Offered, len(arr[tn]))
		}
	}
}

// TestPinnedFleetCycles pins the per-core simulated cycles, summed over the
// fleet, of two fixed model-zoo serving scenarios bit-exactly: one on the
// parallel per-core path, one serial. Tenant i runs model i mod 8, seeded i+1.
// The cycles live in testdata/cycle_pins.txt; -update rewrites it after a
// deliberate re-baseline.
func TestPinnedFleetCycles(t *testing.T) {
	names := []string{"BERT", "DLRM", "NCF", "Transformer", "ResNet", "RetinaNet", "MNIST", "EfficientNet"}
	cases := []struct {
		name    string
		opts    Options
		tenants int
	}{
		{"fleet-8c16t", Options{Cores: 8, Seed: 1, RateHz: 45, DurationCycles: 30e6}, 16},
		{"fleet-serial-4c8t", Options{Cores: 4, Seed: 2, RateHz: 45, DurationCycles: 30e6, Parallel: 1}, 8},
	}
	pins := openCyclePins(t, len(cases))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := make([]*trace.Workload, tc.tenants)
			for i := range ws {
				s, _ := models.ByName(names[i%len(names)])
				ws[i] = s.Workload(16, uint64(i+1), cfg)
			}
			res, err := Run(ws, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var cycles int64
			for _, cr := range res.Cores {
				if cr.Run != nil {
					cycles += cr.Run.TotalCycles
				}
			}
			pins.check(t, fmt.Sprintf("%s %d", tc.name, cycles))
			if res.Completed == 0 {
				t.Error("completed no requests")
			}
		})
	}
}
