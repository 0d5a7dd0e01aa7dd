package sched

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"v10/internal/metrics"
	"v10/internal/obs"
	"v10/internal/trace"
)

// failStop runs the workloads under o with a whole-core fail-stop at cycle
// at, the way the fleet runs a failed core.
func failStop(ws []*trace.Workload, o Options, at int64) (*metrics.RunResult, error) {
	c, err := New(ws, o)
	if err != nil {
		return nil, err
	}
	c.Halt(at)
	return c.Finish()
}

// failStopPin renders one fail-stop run as its pin line: the leading half
// of a SHA-256 over the RunResult's JSON and the final counter rows, the
// number of traced events with the leading half of a SHA-256 over them,
// and the run's error text.
func failStopPin(name string, res *metrics.RunResult, err error, log *obs.Log, counters *obs.CounterLog) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	_ = enc.Encode(res)
	_ = enc.Encode(counters.Rows)
	ev := sha256.New()
	for i, e := range log.Events {
		fmt.Fprintf(ev, "%+v %s\n", e, log.Name(i))
	}
	msg := "ok"
	if err != nil {
		msg = fmt.Sprintf("%q", err.Error())
	}
	return fmt.Sprintf("%s result=%x events=%d/%x err=%s", name, h.Sum(nil)[:16], len(log.Events), ev.Sum(nil)[:16], msg)
}

// TestFailStopEdgesPinned pins the fail-stop's edge cases to
// testdata/failstop_pins.txt: a halt tied with a same-cycle arrival (and with
// a counter sample and a preemption-timer tick), a halt at exactly MaxCycles
// and one a cycle past it, a halt after every workload finished and one tied
// with the last completion, a PMT halt in the middle of a quantum, and a halt
// inside a stall window. A halt beats every event at its own cycle, so
// nothing fires at or after it. Run with -update to rewrite the file.
func TestFailStopEdgesPinned(t *testing.T) {
	one := func() []*trace.Workload { return []*trace.Workload{synthetic("S", 1000, 500, 4)} }
	two := func() []*trace.Workload {
		return []*trace.Workload{synthetic("A", 3000, 700, 3), synthetic("B", 500, 2500, 3)}
	}
	pmtPair := func() []*trace.Workload {
		return []*trace.Workload{synthetic("A", 40_000, 10, 5), synthetic("B", 30_000, 5_000, 5)}
	}
	doneAt := func() int64 { // the fault-free makespan of "at-last-completion"
		res, err := Run(two(), Options{Policy: PriorityPreempt, RequestsPerWorkload: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalCycles
	}
	cases := []struct {
		name string
		ws   func() []*trace.Workload
		opts Options
		at   int64
		halt bool // whether the halt fires, rather than the run ending first
	}{
		{"arrival-tie", two, Options{Policy: Priority,
			ArrivalCycles: [][]int64{{0, 12_000, 30_000}, {0, 30_000}}}, 30_000, true},
		{"timer-and-counter-tie", two, Options{Policy: PriorityPreempt, RequestsPerWorkload: 50,
			CounterInterval: 32_768}, 2 * 32_768, true}, // the default TimeSlice's grid
		{"at-max-cycles", one, Options{RequestsPerWorkload: 100, MaxCycles: 40_000}, 40_000, true},
		{"past-max-cycles", one, Options{RequestsPerWorkload: 100, MaxCycles: 40_000}, 40_001, false},
		{"after-done", two, Options{Policy: PriorityPreempt, RequestsPerWorkload: 4}, 1_000_000, false},
		{"at-last-completion", two, Options{Policy: PriorityPreempt, RequestsPerWorkload: 4}, doneAt(), true},
		{"pmt-mid-quantum", pmtPair, Options{Policy: PMT, PMTQuantum: 200_000, RequestsPerWorkload: 5}, 500_000, true},
		{"in-stall-window", two, Options{Policy: PriorityPreempt, RequestsPerWorkload: 10,
			StallWindows: []Window{{At: 5_000, Dur: 10_000}},
			HBMWindows:   []Window{{At: 2_000, Dur: 20_000, Factor: 0.5}}}, 9_000, true},
	}
	pins := openPins(t, "testdata/failstop_pins.txt", len(cases))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log, counters := &obs.Log{}, obs.NewCounterLog()
			o := tc.opts
			o.Tracer, o.Counters = log, counters
			res, err := failStop(tc.ws(), o, tc.at)
			if res == nil {
				t.Fatalf("no result: %v", err)
			}
			if halted := res.HaltedAt != 0; halted != tc.halt || halted && res.HaltedAt != tc.at {
				t.Fatalf("halted at %d (total %d), want a halt: %v", res.HaltedAt, res.TotalCycles, tc.halt)
			}
			for _, e := range log.Events {
				if e.Time > tc.at {
					t.Fatalf("event %v at cycle %d, after the halt at %d", e.Type, e.Time, tc.at)
				}
			}
			pins.check(t, failStopPin(tc.name, res, err, log, counters))
		})
	}
}
