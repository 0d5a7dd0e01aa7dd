package simcheck

import (
	"context"

	"v10/internal/fleet"
	"v10/internal/parallel"
	"v10/internal/trace"
)

// fanOut runs one trial's independent simulations on at most width
// goroutines (parallel.Workers semantics: 0 = GOMAXPROCS) and returns get,
// which yields run i's result. The oracles then read the results in the
// serial order, so a trial's problem list is the same at any width.
//
// At width 1 nothing runs ahead: get(i) executes run i on the caller's
// goroutine, so a serial trial keeps its run order, its peak memory and its
// early returns (a run the oracles never reach never executes). At a wider
// width every run executes before fanOut returns. A run's panic is recovered
// on its worker and re-raised by get(i) on the caller's goroutine, where the
// serial path would have raised it; a run the oracles never reach cannot
// panic the trial.
func fanOut[T any](width int, runs ...func() T) (get func(i int) T) {
	if parallel.Workers(width) == 1 || len(runs) < 2 {
		return func(i int) T { return runs[i]() }
	}
	vals := make([]T, len(runs))
	panics := make([]any, len(runs))
	_ = parallel.ForEach(context.Background(), len(runs), width, func(i int) error {
		defer func() { panics[i] = recover() }()
		vals[i] = runs[i]()
		return nil
	})
	return func(i int) T {
		if p := panics[i]; p != nil {
			panic(p)
		}
		return vals[i]
	}
}

// fleetRun is one fleet.Run's outcome, the unit the fleet arms fan out.
type fleetRun struct {
	res *fleet.Result
	err error
}

// observeFleetRun, when set, sees every fleet run's outcome as the run
// returns. It is a test seam: the fleet-arm pin test hashes every run of a
// serial trial through it.
var observeFleetRun func(*fleet.Result, error)

// runFleet defers fleet.Run(ws, o) for fanOut. ws may be shared between
// runs: workloads synthesize each request into the caller's scratch.
func runFleet(ws []*trace.Workload, o fleet.Options) func() fleetRun {
	return func() fleetRun {
		res, err := fleet.Run(ws, o)
		if observeFleetRun != nil {
			observeFleetRun(res, err)
		}
		return fleetRun{res, err}
	}
}
