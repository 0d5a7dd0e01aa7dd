package sched

import (
	"testing"

	"v10/internal/trace"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestRequestPathAllocationFree pins that serving a request allocates nothing
// once a run is warm, even when every request is tiled for a small vmem
// partition: a run of 2N requests per workload allocates about as much as a
// run of N. The slack covers the amortized growth of per-run slices (latency
// samples, the arrival queue, the event heap).
func TestRequestPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	ws := []*trace.Workload{wl(t, "BERT", 32, 1), wl(t, "DLRM", 32, 2)}
	opts := FullOptions()
	opts.ArrivalRateHz = 20
	opts.Seed = 4
	opts.Config = cfg
	opts.Config.VMemBytes = cfg.VMemBytes / 128
	part := opts.Config.VMemBytes / int64(len(ws))
	for _, w := range ws {
		if g := w.Request(0); trace.TileForVMem(g, part, 0.5) == g {
			t.Fatalf("%s needs no tiling at a %d-byte partition", w.Name, part)
		}
	}
	allocs := func(n int) float64 {
		o := opts
		o.RequestsPerWorkload = n
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(ws, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n, slack = 40, 8
	a1, a2 := allocs(n), allocs(2*n)
	if a2-a1 > slack {
		t.Fatalf("%d requests per workload allocate %.0f times, %d allocate %.0f: %.1f per extra request",
			n, a1, 2*n, a2, (a2-a1)/float64(n*len(ws)))
	}
}
