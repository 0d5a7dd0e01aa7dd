package sched

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"v10/internal/trace"
)

func TestArrivalCyclesServesExactSchedule(t *testing.T) {
	w := synthetic("S", 1000, 500, 2)
	opts := Options{Policy: PriorityPreempt}
	opts.ArrivalCycles = [][]int64{{0, 10_000, 10_000, 50_000}}
	res, err := Run([]*trace.Workload{w}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads[0].Requests != 4 {
		t.Fatalf("requests = %d, want the schedule length 4", res.Workloads[0].Requests)
	}
	// Serial service is 2×(1000+500) = 3000 cycles: the spaced arrivals see
	// bare service latency, the back-to-back one queues behind its twin.
	lats := res.Workloads[0].LatencyCycles
	if len(lats) != 4 {
		t.Fatalf("latencies = %v", lats)
	}
	for i, lat := range lats {
		if lat < 3000 {
			t.Fatalf("latency[%d] = %v < serial minimum 3000", i, lat)
		}
	}
	if lats[2] < lats[1]+3000-1 {
		t.Fatalf("queued twin latency %v should exceed its predecessor's %v by a service time", lats[2], lats[1])
	}
}

func TestArrivalCyclesEmptySchedule(t *testing.T) {
	// A workload with no arrivals holds its partition but serves nothing.
	a := synthetic("A", 1000, 500, 2)
	b := synthetic("B", 1000, 500, 2)
	opts := Options{Policy: PriorityPreempt}
	opts.ArrivalCycles = [][]int64{{0, 1000}, {}}
	res, err := Run([]*trace.Workload{a, b}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads[0].Requests != 2 || res.Workloads[1].Requests != 0 {
		t.Fatalf("requests = %d/%d, want 2/0", res.Workloads[0].Requests, res.Workloads[1].Requests)
	}
}

func TestArrivalCyclesDeterministic(t *testing.T) {
	mk := func() []*trace.Workload {
		return []*trace.Workload{synthetic("A", 2000, 10, 4), synthetic("B", 10, 2000, 4)}
	}
	opts := Options{Policy: PriorityPreempt}
	opts.ArrivalCycles = [][]int64{{0, 5000, 9000}, {100, 100, 20_000}}
	r1, err1 := Run(mk(), opts)
	r2, err2 := Run(mk(), opts)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.TotalCycles != r2.TotalCycles ||
		!reflect.DeepEqual(r1.Workloads[0].LatencyCycles, r2.Workloads[0].LatencyCycles) ||
		!reflect.DeepEqual(r1.Workloads[1].LatencyCycles, r2.Workloads[1].LatencyCycles) {
		t.Fatal("explicit arrival schedules are nondeterministic")
	}
}

func TestArrivalCyclesValidation(t *testing.T) {
	w := synthetic("S", 1000, 500, 1)
	for name, opts := range map[string]Options{
		"decreasing schedule": {ArrivalCycles: [][]int64{{100, 50}}},
		"negative arrival":    {ArrivalCycles: [][]int64{{-1}}},
		"exclusive with rate": {ArrivalCycles: [][]int64{{0}}, ArrivalRateHz: 10},
	} {
		if _, err := Run([]*trace.Workload{w}, opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Length mismatch: one schedule for two workloads.
	opts := Options{ArrivalCycles: [][]int64{{0}}}
	if _, err := Run([]*trace.Workload{w, synthetic("T", 10, 10, 1)}, opts); err == nil {
		t.Error("schedule/workload length mismatch accepted")
	}
}

func TestArrivalErrorTyped(t *testing.T) {
	w := synthetic("S", 1000, 500, 1)
	check := func(name string, opts Options, wantWL, wantIdx int) {
		t.Helper()
		_, err := Run([]*trace.Workload{w}, opts)
		var ae *ArrivalError
		if !errors.As(err, &ae) {
			t.Fatalf("%s: err = %v (%T), want *ArrivalError", name, err, err)
		}
		if _, ok := err.(*OptionsError); !ok {
			t.Fatalf("%s: err is %T, want the *OptionsError wrapping it", name, err)
		}
		if ae.Workload != wantWL || ae.Index != wantIdx {
			t.Errorf("%s: ArrivalError{Workload: %d, Index: %d}, want {%d, %d}: %v",
				name, ae.Workload, ae.Index, wantWL, wantIdx, ae)
		}
		if ae.Error() == "" || !strings.Contains(ae.Error(), "sched:") {
			t.Errorf("%s: unhelpful message %q", name, ae.Error())
		}
	}
	check("decreasing", Options{ArrivalCycles: [][]int64{{0, 100, 50}}}, 0, 2)
	check("negative", Options{ArrivalCycles: [][]int64{{-7}}}, 0, 0)
	check("exclusive", Options{ArrivalCycles: [][]int64{{0}}, ArrivalRateHz: 10}, -1, -1)

	// Length mismatch surfaces from Run (the schedule count is only known
	// against the workload list).
	_, err := Run([]*trace.Workload{w, synthetic("T", 10, 10, 1)},
		Options{ArrivalCycles: [][]int64{{0}}})
	var ae *ArrivalError
	if !errors.As(err, &ae) || ae.Workload != -1 {
		t.Fatalf("length mismatch: err = %v, want option-level *ArrivalError", err)
	}

	// A valid schedule still runs.
	if _, err := Run([]*trace.Workload{w}, Options{ArrivalCycles: [][]int64{{0, 10, 10}}}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

// TestOpenLoopRealizedRate pins the runner-side fix: drawing int64-truncated
// gaps clamped to >= 1 cycle inflated the realized Poisson rate (about +10%
// at a 3-cycle mean gap). With float64 absolute-time accumulation the time
// of the Nth arrival must match N×meanGap statistically.
func TestOpenLoopRealizedRate(t *testing.T) {
	const (
		requests = 20_000
		meanGap  = 3.0 // cycles — deep in the old clamp's bias regime
	)
	w := synthetic("S", 1, 0, 1) // 1-cycle service: queues never build up
	opts := Options{Policy: RoundRobin}
	opts.RequestsPerWorkload = requests
	opts.ArrivalRateHz = 700e6 / meanGap
	res, err := Run([]*trace.Workload{w}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads[0].Requests != requests {
		t.Fatalf("served %d requests, want %d", res.Workloads[0].Requests, requests)
	}
	want := meanGap * requests // expected cycle of the last arrival
	got := float64(res.TotalCycles)
	if rel := (got - want) / want; rel < -0.03 || rel > 0.03 {
		t.Errorf("open-loop run spanned %v cycles for %d arrivals, want %v ±3%% (rel err %+.4f)",
			got, requests, want, rel)
	}
}
