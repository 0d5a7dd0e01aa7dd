package sched

import (
	"errors"
	"math"
	"testing"

	"v10/internal/obs"
	"v10/internal/trace"
	"v10/internal/vnpu"
)

// syntheticHBM builds a deterministic SA-only workload whose every operator
// moves hbmBytes off-chip.
func syntheticHBM(name string, saLen int64, ops int, hbmBytes float64) *trace.Workload {
	return trace.NewWorkload(name, name, 1, func(int) *trace.Graph {
		g := &trace.Graph{}
		for i := 0; i < ops; i++ {
			op := trace.Op{ID: i, Kind: trace.KindSA, Compute: saLen, HBMBytes: hbmBytes}
			if i > 0 {
				op.Deps = []int{i - 1}
			}
			g.Ops = append(g.Ops, op)
		}
		return g
	})
}

// partition materializes templates against the package-level test config,
// failing the test on error. Each Run needs a fresh partition: slices carry
// live token-bucket and vmem state.
func partition(t *testing.T, window int64, templates ...vnpu.Template) *vnpu.Partition {
	t.Helper()
	p, err := vnpu.NewPartition(cfg, templates, window)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSlicedRunReportsSliceStats(t *testing.T) {
	a := synthetic("A", 1000, 500, 4)
	b := synthetic("B", 1000, 500, 4)
	p := partition(t, 0,
		vnpu.Template{Name: "big", Compute: 0.5, VMem: 0.5, HBM: 0.5},
		vnpu.Template{Name: "small", Compute: 0.5, VMem: 0.25, HBM: 0.5})
	res, err := Run([]*trace.Workload{a, b}, Options{
		RequestsPerWorkload: 2,
		Slices:              p.Slices,
		SliceOf:             []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slices) != 2 {
		t.Fatalf("got %d slice stats, want 2", len(res.Slices))
	}
	for i, ss := range res.Slices {
		if ss.Slice != i {
			t.Fatalf("slice %d reports index %d", i, ss.Slice)
		}
		if ss.Residents != 1 {
			t.Fatalf("slice %d residents = %d, want 1", i, ss.Residents)
		}
		if ss.VMemUsedBytes != p.Slices[i].VMemBytes {
			t.Fatalf("slice %d vmem used = %d, want the full per-resident partition %d",
				i, ss.VMemUsedBytes, p.Slices[i].VMemBytes)
		}
	}
	if res.Slices[0].Name != "big" || res.Slices[1].Name != "small" {
		t.Fatalf("slice names = %q, %q", res.Slices[0].Name, res.Slices[1].Name)
	}
	// NumSA stays the physical core's count, not the virtual per-slice total.
	if res.NumSA != cfg.NumSA {
		t.Fatalf("NumSA = %d, want physical %d", res.NumSA, cfg.NumSA)
	}
	if res.Workloads[0].Requests != 2 || res.Workloads[1].Requests != 2 {
		t.Fatal("sliced workloads did not complete their requests")
	}
}

func TestSliceComputeFractionStretchesLatency(t *testing.T) {
	run := func(slices []*vnpu.Slice, sliceOf []int) float64 {
		w := synthetic("S", 1000, 500, 4)
		res, err := Run([]*trace.Workload{w}, Options{
			RequestsPerWorkload: 3, Slices: slices, SliceOf: sliceOf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Workloads[0].LatencyCycles[0]
	}
	full := run(nil, nil)
	p := partition(t, 0, vnpu.Template{Compute: 0.5, VMem: 0.5, HBM: 1})
	half := run(p.Slices, []int{0})
	if ratio := half / full; math.Abs(ratio-2) > 0.01 {
		t.Fatalf("half-compute slice latency ratio = %v (%v vs %v), want ≈ 2", ratio, half, full)
	}
}

func TestSliceHBMThrottleStallsDMA(t *testing.T) {
	const window = 4096
	// Each operator's DMA is several times the starved slice's window quota,
	// so every charge must reserve future windows.
	bytesPerOp := 4 * 0.1 * cfg.HBMBytesPerCycle() * window
	run := func(hbmFrac float64) (*vnpu.Slice, int64) {
		p := partition(t, window, vnpu.Template{Compute: 1, VMem: 1, HBM: hbmFrac})
		// Compute longer than the window, so consecutive charges land in
		// distinct windows and the full-bandwidth slice never throttles.
		w := syntheticHBM("W", 2*window, 6, bytesPerOp)
		res, err := Run([]*trace.Workload{w}, Options{
			RequestsPerWorkload: 2, Slices: p.Slices, SliceOf: []int{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p.Slices[0], res.TotalCycles
	}
	starved, starvedCycles := run(0.1)
	rich, richCycles := run(1)

	st := starved.Stats()
	if st.ThrottleStalls == 0 || st.ThrottleCycles == 0 {
		t.Fatalf("starved slice saw no throttling: %+v", st)
	}
	// Stall, not shed: every byte is still charged and the run just takes
	// longer than with a full-bandwidth slice. The closed loop charges the
	// next request's first operator before the done predicate ends the run,
	// so up to one extra op's bytes may appear.
	wantBytes := 2 * 6 * bytesPerOp
	if st.HBMBytes < wantBytes-1e-6*wantBytes || st.HBMBytes > wantBytes+bytesPerOp+1e-6*wantBytes {
		t.Fatalf("charged bytes = %v, want within [%v, %v]", st.HBMBytes, wantBytes, wantBytes+bytesPerOp)
	}
	if starvedCycles <= richCycles {
		t.Fatalf("starved run (%d cycles) not slower than full-bandwidth run (%d)",
			starvedCycles, richCycles)
	}
	if rt := rich.Stats(); rt.ThrottleStalls != 0 {
		t.Fatalf("full-bandwidth slice throttled %d times", rt.ThrottleStalls)
	}
}

func TestSliceDispatchStaysInsideSlice(t *testing.T) {
	a := synthetic("A", 1000, 500, 4)
	b := synthetic("B", 1000, 500, 4)
	p := partition(t, 0,
		vnpu.Template{Compute: 0.5, VMem: 0.5, HBM: 0.5},
		vnpu.Template{Compute: 0.5, VMem: 0.5, HBM: 0.5})
	log := &obs.Log{}
	_, err := Run([]*trace.Workload{a, b}, Options{
		RequestsPerWorkload: 3,
		Slices:              p.Slices,
		SliceOf:             []int{0, 1},
		Tracer:              log,
	})
	if err != nil {
		t.Fatal(err)
	}
	dispatches := 0
	for _, e := range log.Events {
		if e.Type != obs.EvDispatch {
			continue
		}
		dispatches++
		perSlice := cfg.NumSA
		if e.FUKind == obs.FUVU {
			perSlice = cfg.NumVU
		}
		if got := int(e.FUIndex) / perSlice; got != int(e.WIdx) {
			t.Fatalf("workload %d dispatched onto slice %d's FU (index %d)", e.WIdx, got, e.FUIndex)
		}
	}
	if dispatches == 0 {
		t.Fatal("no dispatch events traced")
	}
}

func TestSliceChargeEventsMatchStats(t *testing.T) {
	const window = 4096
	bytesPerOp := 2 * 0.2 * cfg.HBMBytesPerCycle() * window
	p := partition(t, window, vnpu.Template{Compute: 1, VMem: 1, HBM: 0.2})
	w := syntheticHBM("W", 2000, 5, bytesPerOp)
	log := &obs.Log{}
	_, err := Run([]*trace.Workload{w}, Options{
		RequestsPerWorkload: 2, Slices: p.Slices, SliceOf: []int{0}, Tracer: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	var charged float64
	var throttles int64
	lastCharge := int64(-1)
	for _, e := range log.Events {
		switch e.Type {
		case obs.EvSliceHBM:
			if e.Arg0 != 0 {
				t.Fatalf("charge event on slice %v, want 0", e.Arg0)
			}
			charged += e.Arg1
			if e.Time < lastCharge {
				t.Fatalf("charge events out of order: %d after %d", e.Time, lastCharge)
			}
			lastCharge = e.Time
		case obs.EvSliceThrottle:
			throttles++
			if e.Dur <= 0 {
				t.Fatalf("throttle span with non-positive duration %d", e.Dur)
			}
		}
	}
	st := p.Slices[0].Stats()
	// Every traced charge is in the stats; a charge whose grant lies past the
	// run's end has no event yet, so the stats may lead the events by at most
	// one in-flight op per resident.
	if charged > st.HBMBytes+1e-6*st.HBMBytes {
		t.Fatalf("event bytes %v exceed slice stats bytes %v", charged, st.HBMBytes)
	}
	if st.HBMBytes-charged > bytesPerOp+1e-6*st.HBMBytes {
		t.Fatalf("stats bytes %v lead event bytes %v by more than one op (%v)",
			st.HBMBytes, charged, bytesPerOp)
	}
	if throttles > st.ThrottleStalls || st.ThrottleStalls-throttles > 1 {
		t.Fatalf("traced %d throttle spans, stats say %d stalls (at most one pending per resident)",
			throttles, st.ThrottleStalls)
	}
	if throttles == 0 {
		t.Fatal("scenario produced no throttling; test is vacuous")
	}
}

func TestSliceCapHitSkipsPreemption(t *testing.T) {
	// Two workloads interleaved inside one tiny slice: the per-resident vmem
	// partition's context budget (part/4) cannot hold a single SA context, so
	// every preemption attempt is rejected and counted as a cap hit.
	small := cfg
	small.VMemBytes = 4 * vnpu.MinPartitionBytes
	// A's SA operators outlast the preemption time-slice while B (higher
	// priority, so a lower active_rate_p) waits — every timer tick wants to
	// preempt A.
	a := synthetic("A", 3*cfg.TimeSlice, 10, 6)
	b := synthetic("B", 3*cfg.TimeSlice, 10, 6)
	b.Priority = 8
	p, err := vnpu.NewPartition(small, []vnpu.Template{{Compute: 1, VMem: 1, HBM: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Policy: PriorityPreempt}
	opts.Config = small
	opts.RequestsPerWorkload = 2
	opts.Slices = p.Slices
	opts.SliceOf = []int{0, 0}
	res, err := Run([]*trace.Workload{a, b}, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Slices[0]
	if st.Residents != 2 {
		t.Fatalf("residents = %d, want 2", st.Residents)
	}
	if st.CapHits == 0 {
		t.Fatal("no cap hits recorded despite an undersized context budget")
	}
	if res.Workloads[0].Preemptions+res.Workloads[1].Preemptions != 0 {
		t.Fatal("preemptions happened despite the context budget never fitting")
	}
}

func TestSlicedRunTracedMatchesUntraced(t *testing.T) {
	run := func(tr obs.Tracer) *metricsSummary {
		const window = 4096
		p := partition(t, window,
			vnpu.Template{Compute: 0.5, VMem: 0.5, HBM: 0.25},
			vnpu.Template{Compute: 0.5, VMem: 0.5, HBM: 0.25})
		a := syntheticHBM("A", 2000, 5, 0.5*cfg.HBMBytesPerCycle()*window)
		b := synthetic("B", 1000, 500, 4)
		opts := Options{Policy: PriorityPreempt}
		opts.RequestsPerWorkload = 3
		opts.Slices = p.Slices
		opts.SliceOf = []int{0, 1}
		opts.Tracer = tr
		res, err := Run([]*trace.Workload{a, b}, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := &metricsSummary{total: res.TotalCycles}
		for _, w := range res.Workloads {
			s.lats = append(s.lats, w.LatencyCycles...)
			s.hbm += w.HBMBytes
			s.preempts += w.Preemptions
		}
		return s
	}
	plain := run(nil)
	traced := run(&obs.Log{})
	if plain.total != traced.total || plain.hbm != traced.hbm || plain.preempts != traced.preempts {
		t.Fatalf("traced run diverged: %+v vs %+v", plain, traced)
	}
	for i := range plain.lats {
		if plain.lats[i] != traced.lats[i] {
			t.Fatalf("latency %d diverged: %v vs %v", i, plain.lats[i], traced.lats[i])
		}
	}
}

type metricsSummary struct {
	total    int64
	lats     []float64
	hbm      float64
	preempts int64
}

func TestSliceOptionErrors(t *testing.T) {
	w := synthetic("S", 1000, 500, 2)
	p := partition(t, 0, vnpu.Template{Compute: 0.5, VMem: 0.5, HBM: 0.5})

	if _, err := Run([]*trace.Workload{w}, Options{
		RequestsPerWorkload: 1, SliceOf: []int{0},
	}); err == nil {
		t.Fatal("SliceOf without Slices accepted")
	}
	if _, err := Run([]*trace.Workload{w}, Options{
		RequestsPerWorkload: 1, Slices: p.Slices,
	}); err == nil {
		t.Fatal("Slices without SliceOf accepted")
	}
	if _, err := Run([]*trace.Workload{w}, Options{
		RequestsPerWorkload: 1, Slices: p.Slices, SliceOf: []int{1},
	}); err == nil {
		t.Fatal("out-of-range slice index accepted")
	}
	if _, err := Run([]*trace.Workload{w}, Options{
		RequestsPerWorkload: 1, Slices: []*vnpu.Slice{nil}, SliceOf: []int{0},
	}); err == nil {
		t.Fatal("nil slice accepted")
	}
	if _, err := Run([]*trace.Workload{w}, Options{
		RequestsPerWorkload: 1,
		Slices:              []*vnpu.Slice{{ComputeFraction: 0, VMemBytes: 1 << 20}},
		SliceOf:             []int{0},
	}); err == nil {
		t.Fatal("zero compute fraction accepted")
	}

	// A roster that would shrink a resident's partition below the minimum
	// fails with the typed cap error.
	tiny := cfg
	tiny.VMemBytes = 2 * vnpu.MinPartitionBytes
	pt, err := vnpu.NewPartition(tiny, []vnpu.Template{{Compute: 1, VMem: 0.4, HBM: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{RequestsPerWorkload: 1, Config: tiny, Slices: pt.Slices, SliceOf: []int{0}}
	_, err = Run([]*trace.Workload{w}, opts)
	var capErr *vnpu.CapError
	if !errors.As(err, &capErr) {
		t.Fatalf("undersized partition error = %v, want *vnpu.CapError", err)
	}
}
