package sched

import (
	"testing"

	"v10/internal/trace"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// allocOpts returns open-loop options under which BERT and DLRM tile every
// request, plus the two workloads.
func allocOpts(t *testing.T) ([]*trace.Workload, Options) {
	t.Helper()
	ws := []*trace.Workload{wl(t, "BERT", 32, 1), wl(t, "DLRM", 32, 2)}
	opts := Options{Policy: PriorityPreempt}
	opts.Seed = 4
	opts.Config = cfg
	opts.Config.VMemBytes = cfg.VMemBytes / 128
	part := opts.Config.VMemBytes / int64(len(ws))
	for _, w := range ws {
		if g := w.Request(0); trace.TileForVMemInto(nil, g, part, 0.5) == g {
			t.Fatalf("%s needs no tiling at a %d-byte partition", w.Name, part)
		}
	}
	return ws, opts
}

// assertFlatAllocs fails unless a run of 2n requests per workload allocates
// at most slack times more than a run of n.
func assertFlatAllocs(t *testing.T, ws []*trace.Workload, opts func(n int) Options, n int, slack float64) {
	t.Helper()
	allocs := func(n int) float64 {
		o := opts(n)
		res, err := Run(ws, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range res.Workloads {
			if st.Requests < n {
				t.Fatalf("%s served %d of %d requests", st.Name, st.Requests, n)
			}
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(ws, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a2 := allocs(n), allocs(2*n)
	if a2-a1 > slack {
		t.Fatalf("%d requests per workload allocate %.0f times, %d allocate %.0f: %.1f per extra request",
			n, a1, 2*n, a2, (a2-a1)/float64(n*len(ws)))
	}
}

// TestRequestPathAllocationFree pins that serving a request allocates nothing
// once a run is warm, even when every request is tiled for a small vmem
// partition: a run of 2N requests per workload allocates about as much as a
// run of N. The slack covers the amortized growth of per-run slices (latency
// samples, the arrival queue, the event heap). The model zoo memoizes each
// workload's first 32 request graphs, so N = 8 pins the memo-hit path (a
// copy into warm scratch) and N = 40 the build path.
func TestRequestPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	ws, base := allocOpts(t)
	base.ArrivalRateHz = 20
	for _, n := range []int{8, 40} {
		assertFlatAllocs(t, ws, func(n int) Options {
			o := base
			o.RequestsPerWorkload = n
			return o
		}, n, 8)
	}
}

// TestArrivalSchedulePathAllocationFree is the same pin for explicit
// ArrivalCycles schedules (the fleet's per-core mode): each workload's
// schedule streams through one engine series, so a longer schedule costs no
// per-arrival event.
func TestArrivalSchedulePathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	ws, base := allocOpts(t)
	gap := int64(base.Config.FrequencyHz / 20)
	assertFlatAllocs(t, ws, func(n int) Options {
		o := base
		o.ArrivalCycles = make([][]int64, len(ws))
		for i := range ws {
			o.ArrivalCycles[i] = make([]int64, n)
			for j := range o.ArrivalCycles[i] {
				o.ArrivalCycles[i][j] = int64(j)*gap + int64(i)*gap/3
			}
		}
		return o
	}, 40, 8)
}
