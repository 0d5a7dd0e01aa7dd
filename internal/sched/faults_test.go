package sched

import (
	"testing"

	"v10/internal/obs"
	"v10/internal/trace"
)

// totalFor runs the workload fault-free and returns the run's makespan; the
// fault tests compare perturbed runs against it.
func totalFor(t *testing.T, w *trace.Workload, o Options) int64 {
	t.Helper()
	res, err := Run([]*trace.Workload{w}, o)
	if err != nil {
		t.Fatal(err)
	}
	return res.TotalCycles
}

// TestHaltEndsRunAtExactCycle: a fail-stop halt ends the run cleanly at its
// cycle with partial measurements — no ErrMaxCycles wrap — and records which
// operator kind each workload had in flight for the migration cost model.
func TestHaltEndsRunAtExactCycle(t *testing.T) {
	w := synthetic("S", 1000, 500, 4) // 6000 cycles per request serially
	log := &obs.Log{}
	res, err := failStop([]*trace.Workload{w}, Options{
		RequestsPerWorkload: 100,
		Tracer:              log,
	}, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != 50_000 || res.HaltedAt != 50_000 {
		t.Fatalf("total %d, halted at %d — want both exactly 50000", res.TotalCycles, res.HaltedAt)
	}
	st := res.Workloads[0]
	if st.Requests == 0 || st.Requests >= 100 {
		t.Fatalf("requests = %d, want a partial count in (0,100)", st.Requests)
	}
	// The workload was mid-operator at cycle 50000 (requests take 6000 cycles
	// back to back), so the in-flight kind must be recorded as SA or VU.
	if st.InFlightOpKind != 1 && st.InFlightOpKind != 2 {
		t.Fatalf("InFlightOpKind = %d, want 1 (SA) or 2 (VU)", st.InFlightOpKind)
	}

	// Nothing observable happens at or after the halt, and the halt itself is
	// traced exactly once with the core-index-unknown sentinel.
	var fails int
	for _, e := range log.Events {
		if e.Time > 50_000 {
			t.Fatalf("event %v at cycle %d, after the halt", e.Type, e.Time)
		}
		if e.Type == obs.EvCoreFail {
			fails++
			if e.Time != 50_000 || e.Arg0 != -1 {
				t.Fatalf("EvCoreFail at %d with Arg0 %v, want cycle 50000 / Arg0 -1", e.Time, e.Arg0)
			}
		}
	}
	if fails != 1 {
		t.Fatalf("EvCoreFail emitted %d times, want once", fails)
	}
}

// TestHaltAfterAdvancePanics: a halt cannot cut a run at a cycle the core
// has already advanced past.
func TestHaltAfterAdvancePanics(t *testing.T) {
	c, err := New([]*trace.Workload{synthetic("S", 1000, 500, 4)}, Options{RequestsPerWorkload: 100})
	if err != nil {
		t.Fatal(err)
	}
	if c.AdvanceTo(20_000) {
		t.Fatal("100 requests done by cycle 20000")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Halt(10000) after AdvanceTo(20000) did not panic")
		}
	}()
	c.Halt(10_000)
}

// TestStallWindowDelaysCompletion: clock-gating the FUs for a window strictly
// inside the run pushes the makespan out by exactly the window's length —
// compute-only operators make no progress while frozen and lose none after.
func TestStallWindowDelaysCompletion(t *testing.T) {
	w := synthetic("S", 1000, 500, 4)
	o := Options{RequestsPerWorkload: 3} // ≈18000 cycles fault-free
	base := totalFor(t, w, o)

	log := &obs.Log{}
	perturbed := o
	perturbed.StallWindows = []Window{{At: 5_000, Dur: 3_000}}
	perturbed.Tracer = log
	res, err := Run([]*trace.Workload{w}, perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != base+3_000 {
		t.Fatalf("stalled total %d, want fault-free %d + window 3000", res.TotalCycles, base)
	}
	var stalls int
	for _, e := range log.Events {
		if e.Type == obs.EvCoreStall {
			stalls++
			if e.Time != 8_000 || e.Dur != 3_000 {
				t.Fatalf("EvCoreStall at %d dur %d, want window end 8000 dur 3000", e.Time, e.Dur)
			}
		}
	}
	if stalls != 1 {
		t.Fatalf("EvCoreStall emitted %d times, want once", stalls)
	}
}

// TestHBMWindowSlowsBandwidthBoundRun: degrading HBM capacity for a window
// lengthens a bandwidth-bound run, and the degradation is traced.
func TestHBMWindowSlowsBandwidthBoundRun(t *testing.T) {
	// demand ≈ 600 B/cycle against the core's ≈471 B/cycle: HBM-bound.
	bound := trace.NewWorkload("HBM", "HBM", 1, func(int) *trace.Graph {
		return &trace.Graph{Ops: []trace.Op{{
			ID: 0, Kind: trace.KindSA, Compute: 10_000, HBMBytes: 6e6,
		}}}
	})
	o := Options{RequestsPerWorkload: 3}
	base := totalFor(t, bound, o)

	log := &obs.Log{}
	perturbed := o
	perturbed.HBMWindows = []Window{{At: 1_000, Dur: 10_000, Factor: 0.25}}
	perturbed.Tracer = log
	res, err := Run([]*trace.Workload{bound}, perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles <= base {
		t.Fatalf("degraded total %d not longer than fault-free %d", res.TotalCycles, base)
	}
	var degrades int
	for _, e := range log.Events {
		if e.Type == obs.EvHBMDegrade {
			degrades++
			if e.Time != 11_000 || e.Dur != 10_000 || e.Arg0 != 0.25 {
				t.Fatalf("EvHBMDegrade at %d dur %d factor %v, want 11000/10000/0.25", e.Time, e.Dur, e.Arg0)
			}
		}
	}
	if degrades != 1 {
		t.Fatalf("EvHBMDegrade emitted %d times, want once", degrades)
	}
}

// TestVMemWindowForcesFinerTiling: requests starting inside a vector-memory
// pressure window see a shrunken partition, so an op that fits fault-free
// must be tiled — inflating its HBM reload traffic (§3.6).
func TestVMemWindowForcesFinerTiling(t *testing.T) {
	// 10 MB fits the 16 MB two-tenant partition untiled; at factor 0.25 the
	// partition is 4 MB → 3 tiles → 1e6×(1+0.5×2) = 2e6 bytes per request.
	snug := trace.NewWorkload("Snug", "Snug", 1, func(int) *trace.Graph {
		return &trace.Graph{Ops: []trace.Op{{
			ID: 0, Kind: trace.KindSA, Compute: 10_000,
			HBMBytes: 1e6, VMemBytes: 10 << 20,
		}}}
	})
	other := synthetic("O", 100, 100, 2)
	o := Options{RequestsPerWorkload: 2}
	baseRes, err := Run([]*trace.Workload{snug, other}, o)
	if err != nil {
		t.Fatal(err)
	}
	basePerReq := baseRes.Workloads[0].HBMBytes / float64(baseRes.Workloads[0].Requests)
	if basePerReq > 1.1e6 {
		t.Fatalf("fault-free traffic %v per request, expected untiled ≈1e6", basePerReq)
	}

	perturbed := o
	perturbed.VMemWindows = []Window{{At: 0, Dur: 1 << 40, Factor: 0.25}}
	res, err := Run([]*trace.Workload{snug, other}, perturbed)
	if err != nil {
		t.Fatal(err)
	}
	perReq := res.Workloads[0].HBMBytes / float64(res.Workloads[0].Requests)
	if perReq < 1.9e6 {
		t.Fatalf("pressured traffic %v per request, want ≈2e6 from forced tiling", perReq)
	}
}

// TestFaultWindowValidation: malformed fault options must be rejected before
// the run starts.
func TestFaultWindowValidation(t *testing.T) {
	w := synthetic("S", 100, 100, 2)
	cases := map[string]Options{
		"negative window start": {StallWindows: []Window{{At: -5, Dur: 10}}},
		"zero window duration":  {StallWindows: []Window{{At: 5, Dur: 0}}},
		"hbm factor zero":       {HBMWindows: []Window{{At: 0, Dur: 10, Factor: 0}}},
		"hbm factor above one":  {HBMWindows: []Window{{At: 0, Dur: 10, Factor: 1.5}}},
		"vmem factor missing":   {VMemWindows: []Window{{At: 0, Dur: 10}}},
		"overlapping same kind": {StallWindows: []Window{{At: 0, Dur: 100}, {At: 50, Dur: 100}}},
	}
	for name, o := range cases {
		if _, err := Run([]*trace.Workload{w}, o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Distinct kinds may overlap freely; adjacent same-kind windows may touch.
	ok := Options{
		RequestsPerWorkload: 1,
		StallWindows:        []Window{{At: 0, Dur: 100}, {At: 100, Dur: 50}},
		HBMWindows:          []Window{{At: 0, Dur: 1000, Factor: 0.5}},
		VMemWindows:         []Window{{At: 0, Dur: 1000, Factor: 0.5}},
	}
	if _, err := Run([]*trace.Workload{w}, ok); err != nil {
		t.Fatalf("valid overlapping-kinds options rejected: %v", err)
	}
}
