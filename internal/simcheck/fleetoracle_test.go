package simcheck

import (
	"testing"

	"v10/internal/faults"
	"v10/internal/fleet"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/trace"
)

// This file rides the per-core invariant Checker on whole fleet runs through
// fleet.Options.CoreTracer. It lives in simcheck (not fleet) because the
// chaos harness makes simcheck a dependency of fleet's test suite's subject.

var fleetCfg = npu.DefaultConfig()

// fleetSynthetic builds a deterministic workload: pairs alternating SA/VU ops.
func fleetSynthetic(name string, saLen, vuLen int64, pairs int) *trace.Workload {
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

// quickFleetOptions mirrors the fleet package's quick test configuration: a
// small but non-trivial run where a handful of requests queue and complete.
func quickFleetOptions() fleet.Options {
	return fleet.Options{
		Config:         fleetCfg,
		Cores:          2,
		Policy:         fleet.PolicyLeastLoaded,
		RateHz:         3000,
		DurationCycles: 3_000_000,
		Seed:           5,
		Parallel:       1, // the checkers maps below are not synchronized
	}
}

// specFor mirrors the fleetSynthetic workload shapes as simcheck
// WorkloadSpecs so the invariant checker can derive each core's expected
// operator streams independently of the runner.
func specFor(name string, saLen, vuLen int64, pairs int) WorkloadSpec {
	spec := WorkloadSpec{Name: name, Priority: 1}
	for i := 0; i < pairs; i++ {
		spec.Ops = append(spec.Ops,
			OpSpec{Kind: "SA", Compute: saLen},
			OpSpec{Kind: "VU", Compute: vuLen})
	}
	return spec
}

// oracleTenants pairs each fleet tenant with its independently-derived spec.
func oracleTenants() ([]*trace.Workload, []WorkloadSpec) {
	type shape struct {
		name   string
		sa, vu int64
		pairs  int
	}
	shapes := []shape{
		{"sa0", 4000, 10, 6},
		{"vu0", 10, 4000, 6},
		{"sa1", 3000, 20, 5},
		{"vu1", 20, 3000, 5},
	}
	ws := make([]*trace.Workload, len(shapes))
	specs := make([]WorkloadSpec, len(shapes))
	for i, s := range shapes {
		ws[i] = fleetSynthetic(s.name, s.sa, s.vu, s.pairs)
		specs[i] = specFor(s.name, s.sa, s.vu, s.pairs)
	}
	return ws, specs
}

// TestFleetPassesSimcheckOracles rides a simcheck.Checker on every core of a
// fleet run through the CoreTracer hook: each core's event stream must satisfy
// the full invariant suite (wall-cycle partition per FU, every dispatched
// operator completes or resumes exactly once, ActiveCycles equals the traced
// run segments) against operator streams derived independently from the specs.
func TestFleetPassesSimcheckOracles(t *testing.T) {
	tenants, specs := oracleTenants()
	checkers := map[int]*Checker{}

	o := quickFleetOptions()
	o.Scheme = "V10-Full"
	o.CoreTracer = func(core int, roster []int) obs.Tracer {
		sc := &Scenario{
			Config:        o.Config,
			ArrivalRateHz: 1, // marker: open-loop serving, no latency telescoping
		}
		for _, tnt := range roster {
			sc.Workloads = append(sc.Workloads, specs[tnt])
		}
		checkers[core] = NewChecker(sc, o.Scheme, false)
		return checkers[core]
	}
	res, err := fleet.Run(tenants, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkers) == 0 {
		t.Fatal("CoreTracer was never invoked")
	}
	for core, ck := range checkers {
		for _, p := range ck.Finalize(res.Cores[core].Run, nil) {
			t.Errorf("core %d: %s", core, p)
		}
	}

	checkFleetConservation(t, res)
}

// checkFleetConservation asserts that every offered request completes or
// sheds exactly once, that fleet throughput is exactly the sum of the
// per-core cycle-accurate results, and that the fleet's makespan is its
// slowest core.
func checkFleetConservation(t *testing.T, res *fleet.Result) {
	t.Helper()
	if res.Offered != res.Completed+res.Shed {
		t.Fatalf("offered %d != completed %d + shed %d", res.Offered, res.Completed, res.Shed)
	}
	var coreRequests int
	for _, cr := range res.Cores {
		if cr.Run == nil {
			continue
		}
		for _, wl := range cr.Run.Workloads {
			coreRequests += wl.Requests
		}
	}
	if coreRequests != res.Completed {
		t.Fatalf("Σ per-core requests %d != fleet completed %d", coreRequests, res.Completed)
	}

	var slowest int64
	for _, cr := range res.Cores {
		if cr.Run != nil && cr.Run.TotalCycles > slowest {
			slowest = cr.Run.TotalCycles
		}
	}
	if res.TotalCycles != slowest {
		t.Fatalf("TotalCycles %d != slowest core %d", res.TotalCycles, slowest)
	}
}

// TestFleetOraclesAllSchemes repeats the checker ride-along on every per-core
// scheduler scheme the fleet supports.
func TestFleetOraclesAllSchemes(t *testing.T) {
	for _, scheme := range []string{"V10-Base", "V10-Fair", "V10-Full", "PMT"} {
		t.Run(scheme, func(t *testing.T) {
			tenants, specs := oracleTenants()
			checkers := map[int]*Checker{}
			o := quickFleetOptions()
			o.Scheme = scheme
			o.CoreTracer = func(core int, roster []int) obs.Tracer {
				sc := &Scenario{Config: o.Config, ArrivalRateHz: 1}
				for _, tnt := range roster {
					sc.Workloads = append(sc.Workloads, specs[tnt])
				}
				checkers[core] = NewChecker(sc, scheme, false)
				return checkers[core]
			}
			res, err := fleet.Run(tenants, o)
			if err != nil {
				t.Fatal(err)
			}
			for core, ck := range checkers {
				for _, p := range ck.Finalize(res.Cores[core].Run, nil) {
					t.Errorf("core %d: %s", core, p)
				}
			}
			checkFleetConservation(t, res)
		})
	}
}

// TestFleetOraclesSurviveCoreFailure rides checkers on the cores a fail-stop
// fault leaves alive: their event streams — including the migrated-in
// arrivals they absorb — must satisfy the full per-core invariant suite.
func TestFleetOraclesSurviveCoreFailure(t *testing.T) {
	tenants, specs := oracleTenants()
	checkers := map[int]*Checker{}
	o := quickFleetOptions()
	o.Scheme = "V10-Full"
	o.Cores = 3
	sched, err := faults.Parse("fail@0:1000000")
	if err != nil {
		t.Fatal(err)
	}
	o.Faults = &fleet.FaultOptions{Schedule: sched, HeartbeatCycles: 100_000}
	o.CoreTracer = func(core int, roster []int) obs.Tracer {
		if core == 0 {
			return &obs.Log{} // the dying core's run is halted mid-flight
		}
		sc := &Scenario{Config: o.Config, ArrivalRateHz: 1}
		for _, tnt := range roster {
			sc.Workloads = append(sc.Workloads, specs[tnt])
		}
		checkers[core] = NewChecker(sc, o.Scheme, false)
		return checkers[core]
	}
	res, err := fleet.Run(tenants, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedCores) != 1 || res.Migrated == 0 {
		t.Fatalf("fixture: failed cores %v, %d migrations — expected a failure with recoveries",
			res.FailedCores, res.Migrated)
	}
	if len(checkers) == 0 {
		t.Fatal("no surviving core got a checker")
	}
	for core, ck := range checkers {
		if res.Cores[core].Run == nil {
			continue
		}
		for _, p := range ck.Finalize(res.Cores[core].Run, nil) {
			t.Errorf("surviving core %d: %s", core, p)
		}
	}
}
