package sched

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"v10/internal/obs"
	"v10/internal/trace"
	"v10/internal/vnpu"
)

func TestInvalidPriorityRejected(t *testing.T) {
	for _, prio := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		w := synthetic("S", 100, 100, 2)
		w.Priority = prio
		_, err := Run([]*trace.Workload{w}, Options{RequestsPerWorkload: 1})
		if err == nil {
			t.Errorf("priority %v accepted", prio)
			continue
		}
		if !strings.Contains(err.Error(), "invalid priority") {
			t.Errorf("priority %v: unexpected error %v", prio, err)
		}
	}
}

func TestMaxCyclesPartialResult(t *testing.T) {
	long := synthetic("Slow", 100000, 100000, 100)
	// VU-only requests stay clear of Slow's SA monopolization and finish.
	quick := trace.NewWorkload("Quick", "Quick", 1, func(int) *trace.Graph {
		return &trace.Graph{Ops: []trace.Op{{ID: 0, Kind: trace.KindVU, Compute: 10}}}
	})
	res, err := Run([]*trace.Workload{quick, long},
		Options{RequestsPerWorkload: 5, MaxCycles: 50000})
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if res == nil {
		t.Fatal("partial result discarded on timeout")
	}
	if res.TotalCycles < 50000 {
		t.Fatalf("partial result stops at %d, want >= the 50000-cycle cap", res.TotalCycles)
	}
	// The wrap names who was behind; the finished workload must not appear.
	if !strings.Contains(err.Error(), "Slow 0/5") {
		t.Fatalf("diagnosis missing the lagging workload: %v", err)
	}
	if strings.Contains(err.Error(), "Quick") {
		t.Fatalf("diagnosis lists a finished workload: %v", err)
	}
	// The closed loop keeps serving the finished workload until the cap hits,
	// so it logs at least its quota.
	if res.Workloads[0].Requests < 5 {
		t.Fatalf("finished workload's partial stats lost: %d requests", res.Workloads[0].Requests)
	}
}

// TestTracePreemptionsMatchStats is the ISSUE's ring-buffer assertion: under
// V10-Full every preemption the scheduler counts must appear in the event
// stream, once as EvPreempt and once as the EvCtxSave span that paid for it.
func TestTracePreemptionsMatchStats(t *testing.T) {
	long := synthetic("Long", 500000, 100, 4)
	short := synthetic("Short", 2000, 2000, 40)
	ring := obs.NewRing(1 << 20)
	opts := Options{Policy: PriorityPreempt}
	opts.Tracer = ring
	res, err := Run([]*trace.Workload{long, short}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge the test buffer", ring.Dropped())
	}
	var preempts int64
	for _, w := range res.Workloads {
		preempts += w.Preemptions
	}
	if preempts == 0 {
		t.Fatal("scenario produced no preemptions; the assertion is vacuous")
	}
	if got := int64(ring.Count(obs.EvPreempt)); got != preempts {
		t.Fatalf("EvPreempt count = %d, RunResult preemptions = %d", got, preempts)
	}
	if got := int64(ring.Count(obs.EvCtxSave)); got != preempts {
		t.Fatalf("EvCtxSave count = %d, want one per preemption (%d)", got, preempts)
	}
	// Per-workload attribution must match too.
	for i, wl := range res.Workloads {
		var n int64
		for _, e := range ring.Events() {
			if e.Type == obs.EvPreempt && int(e.WIdx) == i {
				n++
			}
		}
		if n != wl.Preemptions {
			t.Fatalf("%s: traced preempts %d != stats %d", wl.Name, n, wl.Preemptions)
		}
	}
}

// TestTraceRunSegmentsMatchActiveCycles checks the acceptance criterion that
// traced busy spans agree with the scheduler's aggregates: for a finished
// single-workload run the EvRunSegment durations sum exactly to ActiveCycles;
// for a contended pair they agree within one in-flight segment (< TimeSlice
// here, since every operator is shorter than the slice).
func TestTraceRunSegmentsMatchActiveCycles(t *testing.T) {
	ring := obs.NewRing(1 << 20)
	opts := Options{RequestsPerWorkload: 4, Tracer: ring}
	res, err := Run([]*trace.Workload{synthetic("S", 1000, 500, 4)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ring.SumDur(obs.EvRunSegment, 0), res.Workloads[0].ActiveCycles; got != want {
		t.Fatalf("traced run cycles %d != ActiveCycles %d", got, want)
	}

	ring = obs.NewRing(1 << 20)
	opts = Options{Policy: PriorityPreempt}
	opts.Tracer = ring
	a := synthetic("A", 3000, 200, 12)
	b := synthetic("B", 200, 3000, 12)
	res, err = Run([]*trace.Workload{a, b}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events", ring.Dropped())
	}
	slice := opts.Config.TimeSlice
	if slice == 0 {
		slice = cfg.TimeSlice
	}
	for i, wl := range res.Workloads {
		traced := ring.SumDur(obs.EvRunSegment, i)
		diff := wl.ActiveCycles - traced
		if diff < 0 || diff > slice {
			t.Fatalf("%s: ActiveCycles %d vs traced %d (diff %d, want within one %d-cycle slice)",
				wl.Name, wl.ActiveCycles, traced, diff, slice)
		}
	}
}

func TestTraceDispatchAndRequestEvents(t *testing.T) {
	ring := obs.NewRing(1 << 16)
	res, err := Run([]*trace.Workload{synthetic("S", 1000, 500, 3)},
		Options{RequestsPerWorkload: 2, Tracer: ring})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Count(obs.EvDispatch) == 0 {
		t.Fatal("no dispatch events traced")
	}
	// Request-done instants carry the latency and match completed requests.
	var done int
	for _, e := range ring.Events() {
		if e.Type != obs.EvRequestDone {
			continue
		}
		done++
		if e.Arg0 <= 0 {
			t.Fatalf("request-done without latency payload: %+v", e)
		}
	}
	if done != res.Workloads[0].Requests {
		t.Fatalf("traced request completions %d != stats %d", done, res.Workloads[0].Requests)
	}
}

// TestTraceDispatchDelaySpans checks the software-dispatch path: every
// EvDispatchDelay spans exactly DispatchLatency and closes the latest
// dispatch on its FU, to the same workload.
func TestTraceDispatchDelaySpans(t *testing.T) {
	const lat = 700
	log := &obs.Log{}
	_, err := Run([]*trace.Workload{synthetic("A", 3000, 200, 12), synthetic("B", 200, 3000, 12)},
		Options{Policy: PriorityPreempt, RequestsPerWorkload: 3, DispatchLatency: lat, Tracer: log})
	if err != nil {
		t.Fatal(err)
	}
	type fuKey struct {
		kind int8
		idx  int16
	}
	last := map[fuKey]obs.Event{}
	delays := 0
	for _, e := range log.Events {
		k := fuKey{e.FUKind, e.FUIndex}
		switch e.Type {
		case obs.EvDispatch:
			last[k] = e
		case obs.EvDispatchDelay:
			delays++
			d, ok := last[k]
			if e.Dur != lat || !ok || d.WIdx != e.WIdx || d.Time != e.Time-lat {
				t.Fatalf("delay %+v does not close dispatch %+v (ok=%v) after %d cycles", e, d, ok, lat)
			}
		}
	}
	if delays == 0 {
		t.Fatal("no EvDispatchDelay traced; the check is vacuous")
	}
}

func TestCounterSampling(t *testing.T) {
	log := obs.NewCounterLog()
	opts := Options{Policy: PriorityPreempt}
	opts.Counters = log
	opts.CounterInterval = 4096
	long := synthetic("Long", 500000, 100, 4)
	short := synthetic("Short", 2000, 2000, 40)
	res, err := Run([]*trace.Workload{long, short}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() < 4 {
		t.Fatalf("only %d counter rows sampled", log.Len())
	}
	var lastCycle int64 = -1
	perWL := map[string]obs.CounterRow{}
	for _, r := range log.Rows {
		if r.Cycle < lastCycle {
			t.Fatalf("counter cycles not monotonic: %d after %d", r.Cycle, lastCycle)
		}
		lastCycle = r.Cycle
		if r.ActiveCycles > r.Cycle {
			t.Fatalf("active %d exceeds elapsed %d", r.ActiveCycles, r.Cycle)
		}
		perWL[r.Workload] = r // ends as the final snapshot
	}
	// The final snapshot (taken at the end of the run) equals the run stats.
	for _, wl := range res.Workloads {
		final, ok := perWL[wl.Name]
		if !ok {
			t.Fatalf("no counter rows for %s", wl.Name)
		}
		if final.Cycle != res.TotalCycles {
			t.Fatalf("%s final snapshot at %d, run ended at %d", wl.Name, final.Cycle, res.TotalCycles)
		}
		if final.Requests != wl.Requests || final.ActiveCycles != wl.ActiveCycles ||
			final.Preemptions != wl.Preemptions || final.SwitchCycles != wl.SwitchCycles {
			t.Fatalf("%s final snapshot %+v disagrees with stats %+v", wl.Name, final, wl)
		}
	}
}

func TestNegativeCounterIntervalRejected(t *testing.T) {
	w := synthetic("S", 100, 100, 2)
	_, err := Run([]*trace.Workload{w},
		Options{Counters: obs.NewCounterLog(), CounterInterval: -1})
	if err == nil {
		t.Fatal("negative counter interval accepted")
	}
}

// benchWorkloads is the contended V10-Full scenario both benchmarks run, so
// the traced/untraced comparison isolates the observability overhead.
func benchWorkloads() []*trace.Workload {
	return []*trace.Workload{
		synthetic("Long", 50000, 100, 4),
		synthetic("Short", 2000, 2000, 20),
	}
}

// BenchmarkRun measures the nil-tracer fast path: the acceptance bar is no
// measurable regression against the pre-observability scheduler.
func BenchmarkRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(benchWorkloads(), Options{Policy: PriorityPreempt}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunArrivals is BenchmarkRun's open-loop twin: eight workloads,
// half of them streaming HBM traffic, each driven by an explicit schedule of
// 64 arrivals, which Run streams through the engine's arrival series.
func BenchmarkRunArrivals(b *testing.B) {
	const n, requests = 8, 64
	arrivals := make([][]int64, n)
	for w := range arrivals {
		for k := 0; k < requests; k++ {
			arrivals[w] = append(arrivals[w], int64(k)*40_000+int64(w)*4_000)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := make([]*trace.Workload, n)
		for w := range ws {
			name := fmt.Sprintf("W%d", w)
			if w%2 == 0 {
				ws[w] = synthetic(name, int64(800+w*100), int64(400+w*50), 2)
			} else {
				ws[w] = syntheticHBM(name, int64(800+w*100), 3, 300_000)
			}
		}
		if _, err := Run(ws, Options{Policy: PriorityPreempt, ArrivalCycles: arrivals}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTraced measures the same run with a ring sink attached, bounding
// what enabling tracing costs.
func BenchmarkRunTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := Options{Policy: PriorityPreempt}
		opts.Tracer = obs.NewRing(1 << 18)
		if _, err := Run(benchWorkloads(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunRejectsWrappingFUIndex: trace events carry an FU's index as an
// int16, so a core with 1<<15 FUs of a kind, or slices adding up to that
// many, must fail with an error naming the cause before anything runs: no
// panic and no event with a wrapped index.
func TestRunRejectsWrappingFUIndex(t *testing.T) {
	wide := cfg
	wide.NumSA = 1 << 15
	half := cfg
	half.NumSA = 1 << 14
	p := partition(t, 0,
		vnpu.Template{Compute: 0.5, VMem: 0.5, HBM: 0.5},
		vnpu.Template{Compute: 0.5, VMem: 0.5, HBM: 0.5})
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"NumSA", Options{Config: wide}, "NumSA 32768"},
		{"slices", Options{Config: half, Slices: p.Slices, SliceOf: []int{0, 1}}, "2 slices of 16384 FUs"},
	} {
		ring := obs.NewRing(16)
		tc.opts.Tracer = ring
		tc.opts.RequestsPerWorkload = 1
		_, err := Run([]*trace.Workload{synthetic("A", 100, 100, 2), synthetic("B", 100, 100, 2)}, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if ring.Len() != 0 {
			t.Errorf("%s: rejected run emitted %d events", tc.name, ring.Len())
		}
	}
}
