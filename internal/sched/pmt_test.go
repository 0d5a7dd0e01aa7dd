package sched

import (
	"errors"
	"math"
	"strings"
	"testing"

	"v10/internal/obs"
	"v10/internal/trace"
	"v10/internal/vnpu"
)

// pmtOpts returns PMT options serving n requests per workload.
func pmtOpts(n int, seed uint64) Options {
	return Options{Policy: PMT, RequestsPerWorkload: n, Seed: seed}
}

func TestPMTSingleWorkloadNoSwitching(t *testing.T) {
	w := synthetic("S", 1000, 500, 4)
	res, err := Run([]*trace.Workload{w}, pmtOpts(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Workloads[0]
	if st.Requests != 3 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.Preemptions != 0 || st.SwitchCycles != 0 {
		t.Fatalf("single workload should never context switch: %d/%d", st.Preemptions, st.SwitchCycles)
	}
	for _, lat := range st.LatencyCycles {
		if math.Abs(lat-6000) > 10 {
			t.Fatalf("latency = %v, want 6000", lat)
		}
	}
}

func TestPMTTimeSharesFairly(t *testing.T) {
	a := synthetic("A", 10000, 1000, 20)
	b := synthetic("B", 10000, 1000, 20)
	// A small quantum relative to the run length keeps the round-robin
	// truncation error low so the fairness signal is visible.
	o := pmtOpts(10, 1)
	o.PMTQuantum = 200000
	res, err := Run([]*trace.Workload{a, b}, o)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := res.ProgressRate(0), res.ProgressRate(1)
	if ratio := pa / pb; ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("equal-priority PMT progress ratio = %v, want ≈ 1", ratio)
	}
	// Both workloads must have been preempted by slice expiry.
	if res.Workloads[0].Preemptions == 0 && res.Workloads[1].Preemptions == 0 {
		t.Fatal("PMT never context switched under collocation")
	}
}

func TestPMTNoOverlapAcrossWorkloads(t *testing.T) {
	// Complementary pair under PMT: still no SA/VU overlap, because only one
	// workload owns the core at a time and its own ops are serial (O4).
	a := synthetic("A", 5000, 10, 20)
	b := synthetic("B", 10, 5000, 20)
	res, err := Run([]*trace.Workload{a, b}, pmtOpts(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	both, _, _ := res.OverlapBreakdown()
	if both > 0.02 {
		t.Fatalf("PMT overlap = %v, want ≈ 0", both)
	}
}

func TestPMTSwitchOverheadBounded(t *testing.T) {
	res, err := Run([]*trace.Workload{wl(t, "BERT", 32, 1), wl(t, "NCF", 32, 2)}, pmtOpts(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	var sw int64
	for _, w := range res.Workloads {
		sw += w.SwitchCycles
	}
	frac := float64(sw) / float64(res.TotalCycles)
	if frac <= 0 || frac > 0.05 {
		t.Fatalf("PMT switch overhead = %v, want (0, 0.05] (paper: <2%%)", frac)
	}
}

func TestPMTvsV10OnComplementaryPair(t *testing.T) {
	// The paper's central claim at miniature scale: V10 beats PMT on
	// aggregate utilization and system throughput for a compatible pair.
	mk := func(seed uint64) []*trace.Workload {
		return []*trace.Workload{wl(t, "BERT", 32, seed), wl(t, "NCF", 32, seed+100)}
	}
	rates, err := SingleTenantRates(mk(1), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	pmt, err := Run(mk(1), pmtOpts(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(mk(1), Options{Policy: PriorityPreempt, RequestsPerWorkload: 4})
	if err != nil {
		t.Fatal(err)
	}
	if full.AggregateUtil() <= pmt.AggregateUtil() {
		t.Fatalf("V10-Full agg util %v <= PMT %v", full.AggregateUtil(), pmt.AggregateUtil())
	}
	stpPMT, stpFull := pmt.STP(rates), full.STP(rates)
	if stpFull/stpPMT < 1.2 {
		t.Fatalf("V10/PMT STP ratio = %v, want > 1.2 for a compatible pair", stpFull/stpPMT)
	}
	// PMT's STP should hover near 1 (time sharing minus overhead).
	if stpPMT < 0.7 || stpPMT > 1.3 {
		t.Fatalf("PMT STP = %v, want ≈ 1", stpPMT)
	}
}

func TestPMTPriorityWeighting(t *testing.T) {
	a := synthetic("A", 10000, 1000, 20).WithPriority(0.8)
	b := synthetic("B", 10000, 1000, 20).WithPriority(0.2)
	o := pmtOpts(3, 4)
	o.PMTWeighted = true
	res, err := Run([]*trace.Workload{a, b}, o)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res.ProgressRate(0) / res.ProgressRate(1); ratio < 2 {
		t.Fatalf("80/20 PMT progress ratio = %v, want > 2", ratio)
	}
}

func TestPMTDeterministic(t *testing.T) {
	mk := func() []*trace.Workload {
		return []*trace.Workload{synthetic("A", 5000, 100, 10), synthetic("B", 100, 5000, 10)}
	}
	r1, err1 := Run(mk(), pmtOpts(3, 9))
	r2, err2 := Run(mk(), pmtOpts(3, 9))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.TotalCycles != r2.TotalCycles {
		t.Fatalf("PMT nondeterministic: %d vs %d", r1.TotalCycles, r2.TotalCycles)
	}
}

func TestPMTMaxCycles(t *testing.T) {
	o := pmtOpts(100, 0)
	o.MaxCycles = 5000
	_, err := Run([]*trace.Workload{synthetic("S", 1000000, 1000000, 50)}, o)
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
}

func TestPMTMaxCyclesPartialResult(t *testing.T) {
	o := pmtOpts(50, 0)
	o.MaxCycles = 100000
	res, err := Run([]*trace.Workload{synthetic("Slow", 100000, 100000, 100)}, o)
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if res == nil {
		t.Fatal("partial PMT result discarded on timeout")
	}
	if !strings.Contains(err.Error(), "Slow 0/50") {
		t.Fatalf("diagnosis missing the lagging workload: %v", err)
	}
	if res.TotalCycles < 100000 {
		t.Fatalf("partial result stops at %d, want >= the cycle cap", res.TotalCycles)
	}
	// The run was cut mid-operator: the in-flight segment is closed at the
	// cap, so occupancy covers the whole run.
	if st := res.Workloads[0]; st.ActiveCycles != res.TotalCycles || st.SABusyCycles <= 0 {
		t.Fatalf("capped run accounts active %d, SA busy %d over %d cycles",
			st.ActiveCycles, st.SABusyCycles, res.TotalCycles)
	}
}

func TestPMTEmptyWorkloads(t *testing.T) {
	if _, err := Run(nil, pmtOpts(1, 0)); err == nil {
		t.Fatal("empty workloads accepted")
	}
}

func TestRunSingleLabel(t *testing.T) {
	res, err := RunSingle(synthetic("S", 100, 100, 2), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "Single" {
		t.Fatalf("scheme = %s", res.Scheme)
	}
}

func TestSingleTenantRatesPositive(t *testing.T) {
	rates, err := SingleTenantRates([]*trace.Workload{wl(t, "DLRM", 32, 1), wl(t, "MNIST", 32, 2)}, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rates {
		if r <= 0 || r >= 1 {
			t.Fatalf("rate[%d] = %v, want in (0,1)", i, r)
		}
	}
}

func TestPMTUtilizationIsAverageOfSingles(t *testing.T) {
	// Paper §5.2: PMT's aggregate utilization is the average, not the sum, of
	// the single-tenant utilizations (minus switch overhead).
	ra, err := RunSingle(wl(t, "BERT", 32, 11), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunSingle(wl(t, "NCF", 32, 12), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	pmt, err := Run([]*trace.Workload{wl(t, "BERT", 32, 11), wl(t, "NCF", 32, 12)}, pmtOpts(4, 13))
	if err != nil {
		t.Fatal(err)
	}
	wantApprox := (ra.AggregateUtil() + rb.AggregateUtil()) / 2
	if got := pmt.AggregateUtil(); math.Abs(got-wantApprox) > 0.12 {
		t.Fatalf("PMT agg util = %v, want ≈ average of singles %v", got, wantApprox)
	}
}

func TestPMTPremaPolicyFairAndComplete(t *testing.T) {
	ws := []*trace.Workload{
		synthetic("A", 10000, 1000, 20).WithPriority(0.5),
		synthetic("B", 10000, 1000, 20).WithPriority(0.5),
		synthetic("C", 10000, 1000, 20).WithPriority(0.5),
	}
	res, err := Run(ws, Options{Policy: PMTPrema, RequestsPerWorkload: 5, PMTQuantum: 200000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Workloads {
		if w.Requests < 5 {
			t.Fatalf("%s starved under PREMA policy: %d requests", w.Name, w.Requests)
		}
	}
	// Equal priorities, equal workloads: progress within 40% of each other.
	if ratio := res.ProgressRate(0) / res.ProgressRate(2); ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("PREMA equal-priority progress ratio = %v", ratio)
	}
}

func TestPMTPremaPrioritizes(t *testing.T) {
	// Higher priority accumulates tokens faster → scheduled more often.
	hi := synthetic("HI", 10000, 1000, 20).WithPriority(0.9)
	lo := synthetic("LO", 10000, 1000, 20).WithPriority(0.1)
	res, err := Run([]*trace.Workload{hi, lo},
		Options{Policy: PMTPrema, RequestsPerWorkload: 8, PMTQuantum: 100000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With only two workloads PREMA alternates (the other always holds max
	// tokens), so check it at least completes and does not starve anyone.
	if res.Workloads[0].Requests < 8 || res.Workloads[1].Requests < 8 {
		t.Fatal("PREMA starved a workload")
	}
}

func TestPMTPremaSJFPrefersShortJobs(t *testing.T) {
	// Three workloads, one much shorter: PREMA's SJF tiebreak should give
	// the short workload better normalized latency than plain RR gives it.
	mk := func() []*trace.Workload {
		return []*trace.Workload{
			synthetic("LONG1", 100000, 1000, 20),
			synthetic("LONG2", 100000, 1000, 20),
			synthetic("SHORT", 5000, 500, 4),
		}
	}
	rr, err := Run(mk(), Options{Policy: PMT, RequestsPerWorkload: 4, PMTQuantum: 300000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	prema, err := Run(mk(), Options{Policy: PMTPrema, RequestsPerWorkload: 4, PMTQuantum: 300000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if prema.Workloads[2].AvgLatency() > rr.Workloads[2].AvgLatency()*1.3 {
		t.Fatalf("PREMA short-job latency %v much worse than RR %v",
			prema.Workloads[2].AvgLatency(), rr.Workloads[2].AvgLatency())
	}
}

func TestPMTPolicyString(t *testing.T) {
	if PMT.String() != "PMT" || PMTPrema.String() != "PMT" {
		t.Fatal("PMT policy names wrong")
	}
	res, err := Run([]*trace.Workload{synthetic("S", 100, 100, 2)}, Options{Policy: PMTPrema, RequestsPerWorkload: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "PMT" {
		t.Fatalf("scheme = %s, want PMT", res.Scheme)
	}
}

func TestPMTRejectsOperatorKnobs(t *testing.T) {
	w := []*trace.Workload{synthetic("S", 100, 100, 2)}
	for name, o := range map[string]Options{
		"dispatch latency":   {Policy: PMTPrema, DispatchLatency: 10},
		"software scheduler": {Policy: PMT, DispatchLatency: SoftwareDispatchLatency(cfg)},
	} {
		if _, err := Run(w, o); err == nil {
			t.Errorf("%s accepted under PMT", name)
		}
	}
}

// TestPMTArrivalSchedulesPerWorkload: open-loop PMT serves each workload's
// explicit schedule exactly, so per-workload targets come from the schedule
// lengths and no workload serves past its own.
func TestPMTArrivalSchedulesPerWorkload(t *testing.T) {
	a := synthetic("A", 5000, 100, 10)
	b := synthetic("B", 100, 5000, 10)
	res, err := Run([]*trace.Workload{a, b}, Options{
		Policy: PMT, Seed: 7,
		ArrivalCycles: [][]int64{{0, 10_000}, {0, 1000, 2000, 3000, 500_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 5} {
		if got := res.Workloads[i].Requests; got != want {
			t.Fatalf("workload %d served %d requests, schedule has %d", i, got, want)
		}
	}
}

// TestPMTEmptyArrivalSchedule: a workload with nothing to serve holds a
// context-table slot but never takes the core.
func TestPMTEmptyArrivalSchedule(t *testing.T) {
	log := &obs.Log{}
	res, err := Run([]*trace.Workload{synthetic("A", 5000, 100, 10), synthetic("B", 100, 5000, 10)},
		Options{Policy: PMT, Seed: 7, ArrivalCycles: [][]int64{{0, 0, 0}, {}}, Tracer: log})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Workloads[0].Requests; got != 3 {
		t.Fatalf("workload 0 served %d requests, schedule has 3", got)
	}
	for _, e := range log.Events {
		if e.WIdx == 1 {
			t.Fatalf("idle workload B emitted %s at cycle %d", e.Type, e.Time)
		}
	}
	if res.Workloads[0].Preemptions != 0 {
		t.Fatal("holder preempted with nobody else to serve")
	}
}

func TestPMTArrivalScheduleValidation(t *testing.T) {
	ws := []*trace.Workload{synthetic("A", 5000, 100, 10), synthetic("B", 100, 5000, 10)}
	if _, err := Run(ws, Options{Policy: PMT, ArrivalCycles: [][]int64{{-1}, {2}}}); err == nil {
		t.Error("negative arrival accepted")
	}
	if _, err := Run(ws, Options{Policy: PMT, ArrivalCycles: [][]int64{{2}}}); err == nil {
		t.Error("schedule/workload length mismatch accepted")
	}
}

// TestPMTOpenLoopYieldsAndIdles: a holder that runs out of requests hands
// the core straight to a workload with work, and an idle core is taken by
// the next arrival — so latency is pure service time when arrivals never
// overlap, and no quantum or context switch is paid.
func TestPMTOpenLoopYieldsAndIdles(t *testing.T) {
	a := synthetic("A", 1000, 500, 2) // 3000 cycles per request
	b := synthetic("B", 1000, 500, 2)
	log := &obs.Log{}
	res, err := Run([]*trace.Workload{a, b}, Options{
		Policy: PMT, PMTQuantum: 100_000, Tracer: log,
		ArrivalCycles: [][]int64{{0, 20_000}, {1000, 40_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// B arrives while A holds the core; A yields to B at 3000 without a
	// switch, so B's first latency is 2000 cycles of queueing + 3000.
	want := [][]float64{{3000, 3000}, {5000, 3000}}
	for i, st := range res.Workloads {
		for k, lat := range st.LatencyCycles {
			if lat != want[i][k] {
				t.Fatalf("workload %d request %d latency %v, want %v", i, k, lat, want[i][k])
			}
		}
		if st.Preemptions != 0 || st.SwitchCycles != 0 {
			t.Fatalf("workload %d paid %d preemptions / %d switch cycles", i, st.Preemptions, st.SwitchCycles)
		}
	}
	dispatches := 0
	for _, e := range log.Events {
		if e.Type == obs.EvDispatch {
			dispatches++
		}
	}
	if dispatches != 4 {
		t.Fatalf("%d activations, want one per request", dispatches)
	}
}

// TestPMTOpenLoopPoisson: Poisson arrivals compose with PMT and the run
// serves every workload's quota with queueing delay in the latencies.
func TestPMTOpenLoopPoisson(t *testing.T) {
	ws := []*trace.Workload{synthetic("A", 20000, 5000, 4), synthetic("B", 5000, 20000, 4)}
	res, err := Run(ws, Options{Policy: PMTPrema, RequestsPerWorkload: 6, ArrivalRateHz: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Workloads {
		if st.Requests < 6 {
			t.Fatalf("%s served %d of 6", st.Name, st.Requests)
		}
		for _, lat := range st.LatencyCycles {
			if lat < 100_000 {
				t.Fatalf("%s latency %v below its serial service time", st.Name, lat)
			}
		}
	}
}

// TestPMTSlicesTimeShareIndependently: on a sliced core each slice is its
// own PMT domain, so two single-tenant slices never context switch and
// their operators overlap across slices.
func TestPMTSlicesTimeShareIndependently(t *testing.T) {
	part := partition(t, 0,
		vnpu.Template{Name: "a", Compute: 0.5, VMem: 0.5, HBM: 0.5},
		vnpu.Template{Name: "b", Compute: 0.5, VMem: 0.5, HBM: 0.5})
	ws := []*trace.Workload{synthetic("A", 5000, 10, 10), synthetic("B", 10, 5000, 10)}
	res, err := Run(ws, Options{Policy: PMT, RequestsPerWorkload: 3, Slices: part.Slices, SliceOf: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Workloads {
		if st.Requests != 3 || st.Preemptions != 0 {
			t.Fatalf("%s: %d requests, %d preemptions", st.Name, st.Requests, st.Preemptions)
		}
	}
	if both, _, _ := res.OverlapBreakdown(); both < 0.3 {
		t.Fatalf("sliced PMT overlap = %v, want the two slices to run concurrently", both)
	}
	if len(res.Slices) != 2 {
		t.Fatalf("%d slice stats, want 2", len(res.Slices))
	}
}

// TestPMTHaltReportsInFlightOperator: a fail-stop halt ends a PMT run at the
// exact cycle and reports the operator the holder had in flight, which the
// fleet's migration path checkpoints.
func TestPMTHaltReportsInFlightOperator(t *testing.T) {
	ws := []*trace.Workload{synthetic("A", 100_000, 10, 5), synthetic("B", 100_000, 10, 5)}
	res, err := failStop(ws, Options{Policy: PMT, RequestsPerWorkload: 5}, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.HaltedAt != 50_000 || res.TotalCycles != 50_000 {
		t.Fatalf("halted at %d, total %d, want 50000", res.HaltedAt, res.TotalCycles)
	}
	if got := res.Workloads[0].InFlightOpKind; got != 1 {
		t.Fatalf("holder in-flight op kind %d, want SA (1)", got)
	}
	if res.Workloads[0].ActiveCycles != 50_000 {
		t.Fatalf("holder active %d cycles, want 50000", res.Workloads[0].ActiveCycles)
	}
}

// TestPMTStallWindowFreezesHolder: a straggler window clock-gates the
// holder's compute, delaying completion by the window.
func TestPMTStallWindowFreezesHolder(t *testing.T) {
	w := []*trace.Workload{synthetic("A", 10_000, 10, 2)}
	base, err := Run(w, Options{Policy: PMT, RequestsPerWorkload: 1})
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := Run(w, Options{Policy: PMT, RequestsPerWorkload: 1,
		StallWindows: []Window{{At: 5000, Dur: 7000}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := stalled.TotalCycles - base.TotalCycles; got != 7000 {
		t.Fatalf("stall window delayed completion by %d, want 7000", got)
	}
}
