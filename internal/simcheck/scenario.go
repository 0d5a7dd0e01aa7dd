// Package simcheck is the differential simulation-testing subsystem: a
// seeded random scenario generator, a runtime invariant checker that rides
// the obs.Tracer hook through sched.Run, and a layer of
// cross-scheme differential oracles. Together they form the standing harness
// that every scheduler change must pass (see README "Testing & verification"):
//
//   - Checker asserts conservation laws on the event stream and the final
//     RunResult: active + idle + switching cycles partition wall cycles per
//     FU, every dispatched operator completes or is preempted-and-resumed
//     exactly once, per-workload ActiveCycles equals the sum of traced run
//     segments, and HBM bytes stay within what the dispatched operators can
//     generate.
//   - The oracles check that V10 with one workload is serial execution
//     (makespan and per-op timing, computed independently), that equal-
//     priority scheduling is permutation-fair within a bound, and that runs
//     are bit-deterministic.
//   - Arms puts this harness and the workload, chaos, isolation and elastic
//     harnesses behind one generate/check/shrink shape; any failure is one
//     seed-addressed, minimized Repro that cmd/v10check replays.
package simcheck

import (
	"fmt"

	"v10/internal/npu"
	"v10/internal/sched"
	"v10/internal/trace"
)

// Scheme names accepted in Scenario.Schemes.
var (
	SchemePMT  = sched.PMT.String()
	SchemeBase = sched.RoundRobin.String()
	SchemeFair = sched.Priority.String()
	SchemeFull = sched.PriorityPreempt.String()
)

// AllSchemes lists every runnable scheme in canonical order.
var AllSchemes = sched.SchemeNames()

// OpSpec is one generated tensor operator. Ops chain sequentially (op i
// depends on op i-1), matching the paper's observation that operators within
// one workload execute sequentially.
type OpSpec struct {
	Kind       string  `json:"kind"` // "SA" or "VU"
	Compute    int64   `json:"compute"`
	Stall      int64   `json:"stall"`
	Efficiency float64 `json:"efficiency,omitempty"`
	HBMBytes   float64 `json:"hbm_bytes,omitempty"`
	VMemBytes  int64   `json:"vmem_bytes,omitempty"`
}

// WorkloadSpec is one generated workload: a fixed operator list served
// repeatedly (every request reuses the same graph, which keeps scenarios
// fully serializable and minimizable).
type WorkloadSpec struct {
	Name     string   `json:"name"`
	Priority float64  `json:"priority"`
	Ops      []OpSpec `json:"ops"`
}

// Scenario is one self-contained random trial: hardware config, scheduler
// knobs, and workload set. It serializes to JSON so a failing seed replays
// from a repro file byte-for-byte.
type Scenario struct {
	Seed             uint64         `json:"seed"`
	Config           npu.CoreConfig `json:"config"`
	Schemes          []string       `json:"schemes"`
	Requests         int            `json:"requests"`
	MaxCycles        int64          `json:"max_cycles"`
	PreemptMargin    float64        `json:"preempt_margin,omitempty"`
	VMemReloadFactor float64        `json:"vmem_reload_factor,omitempty"`
	DispatchLatency  int64          `json:"dispatch_latency,omitempty"`
	ArrivalRateHz    float64        `json:"arrival_rate_hz,omitempty"`
	// ArrivalCycles is the explicit open-loop schedule per workload (the
	// workload-engine arm): absolute nondecreasing arrival cycles, one
	// schedule per workload. Mutually exclusive with ArrivalRateHz.
	ArrivalCycles [][]int64      `json:"arrival_cycles,omitempty"`
	PMTQuantum    int64          `json:"pmt_quantum,omitempty"`
	PMTPrema      bool           `json:"pmt_prema,omitempty"`
	PMTWeighted   bool           `json:"pmt_weighted,omitempty"`
	Clones        bool           `json:"clones,omitempty"` // workloads are identical copies
	Workloads     []WorkloadSpec `json:"workloads"`
}

// traceOp is the operator the runner executes for o, apart from its place in
// the workload's chain (ID and Deps).
func (o OpSpec) traceOp() trace.Op {
	kind := trace.KindVU
	if o.Kind == "SA" {
		kind = trace.KindSA
	}
	return trace.Op{
		Kind:       kind,
		Compute:    o.Compute,
		Stall:      o.Stall,
		Efficiency: o.Efficiency,
		FLOPs:      2 * float64(o.Compute), // nominal; checker does not rely on it
		HBMBytes:   o.HBMBytes,
		VMemBytes:  o.VMemBytes,
	}
}

// graph materializes one workload's operator DAG, a chain of its Ops in
// order (fresh per call so callers may tile or mutate it freely). Its Ops
// carry ascending IDs, and so do its tiled copies, so the scheduler executes
// them in slice order: the estimators, which never materialize the graph,
// walk the OpSpecs and their tiles in that same order.
func (w WorkloadSpec) graph() *trace.Graph {
	g := &trace.Graph{Ops: make([]trace.Op, len(w.Ops))}
	for i, op := range w.Ops {
		g.Ops[i] = op.traceOp()
		g.Ops[i].ID = i
		if i > 0 {
			g.Ops[i].Deps = []int{i - 1}
		}
	}
	return g
}

// buildWorkloads materializes a workload set in declaration order, or
// reversed (the permutation the fairness oracle compares against). The
// generators are deterministic and request-independent; NewWorkload copies
// the template into the runner's scratch graph, so a request allocates
// nothing.
func buildWorkloads(specs []WorkloadSpec, reversed bool) []*trace.Workload {
	out := make([]*trace.Workload, len(specs))
	for i := range specs {
		spec := specs[i]
		if reversed {
			spec = specs[len(specs)-1-i]
		}
		g := spec.graph() // one immutable template serves every request
		w := trace.NewWorkload(spec.Name, "simcheck", 1, func(int) *trace.Graph { return g })
		out[i] = w.WithPriority(spec.Priority)
	}
	return out
}

// Validate rejects scenarios the runners would refuse or that the checker
// cannot reason about.
func (s *Scenario) Validate() error {
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("simcheck: scenario has no workloads")
	}
	if s.Requests <= 0 {
		return fmt.Errorf("simcheck: non-positive requests %d", s.Requests)
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("simcheck: scenario runs no schemes")
	}
	for _, sch := range s.Schemes {
		if _, err := sched.ParseScheme(sch); err != nil {
			return err
		}
	}
	if s.ArrivalCycles != nil {
		if s.ArrivalRateHz > 0 {
			return fmt.Errorf("simcheck: ArrivalCycles and ArrivalRateHz are mutually exclusive")
		}
		if len(s.ArrivalCycles) != len(s.Workloads) {
			return fmt.Errorf("simcheck: %d arrival schedules for %d workloads",
				len(s.ArrivalCycles), len(s.Workloads))
		}
		for i, schedule := range s.ArrivalCycles {
			prev := int64(0)
			for k, at := range schedule {
				if at < prev {
					return fmt.Errorf("simcheck: arrival_cycles[%d][%d] = %d is negative or decreasing", i, k, at)
				}
				prev = at
			}
		}
	}
	if s.Clones {
		// The clone-symmetry oracle is exact and only sound for true clones;
		// the minimizer clears the flag whenever it perturbs a workload.
		first := s.Workloads[0]
		for _, w := range s.Workloads[1:] {
			if w.Priority != first.Priority || len(w.Ops) != len(first.Ops) {
				return fmt.Errorf("simcheck: clones flag set but workloads differ")
			}
			for i := range w.Ops {
				if w.Ops[i] != first.Ops[i] {
					return fmt.Errorf("simcheck: clones flag set but workloads differ")
				}
			}
		}
	}
	for _, w := range s.Workloads {
		if !(w.Priority > 0) {
			return fmt.Errorf("simcheck: workload %s has non-positive priority", w.Name)
		}
		if len(w.Ops) == 0 {
			return fmt.Errorf("simcheck: workload %s has no ops", w.Name)
		}
		for i, op := range w.Ops {
			if op.Kind != "SA" && op.Kind != "VU" {
				return fmt.Errorf("simcheck: workload %s op %d has kind %q", w.Name, i, op.Kind)
			}
			if op.Compute < 0 || op.Stall < 0 || op.HBMBytes < 0 || op.VMemBytes < 0 {
				return fmt.Errorf("simcheck: workload %s op %d has negative fields", w.Name, i)
			}
		}
	}
	return nil
}

// equalPriorities reports whether every workload has the same priority.
func (s *Scenario) equalPriorities() bool {
	for _, w := range s.Workloads[1:] {
		if w.Priority != s.Workloads[0].Priority {
			return false
		}
	}
	return true
}
