package v10

import (
	"fmt"
	"io"
	"slices"

	"v10/internal/collocate"
	"v10/internal/sched"
	"v10/internal/trace"
)

// Placement assigns workload indices to NPU cores (§3.5): Placement[c]
// lists the workloads collocated on core c.
type Placement [][]int

// Validate checks that every workload in [0, n) appears exactly once and no
// core is empty.
func (p Placement) Validate(n int) error {
	seen := make([]bool, n)
	for c, group := range p {
		if len(group) == 0 {
			return fmt.Errorf("v10: core %d has no workloads", c)
		}
		for _, w := range group {
			if w < 0 || w >= n {
				return fmt.Errorf("v10: workload index %d out of range", w)
			}
			if seen[w] {
				return fmt.Errorf("v10: workload %d placed twice", w)
			}
			seen[w] = true
		}
	}
	for w, ok := range seen {
		if !ok {
			return fmt.Errorf("v10: workload %d not placed", w)
		}
	}
	return nil
}

// NaivePlacement pairs workloads blindly in order — the baseline the
// clustering mechanism improves on.
func NaivePlacement(n int) Placement {
	var p Placement
	for i := 0; i < n; i += 2 {
		if i+1 < n {
			p = append(p, []int{i, i + 1})
		} else {
			p = append(p, []int{i})
		}
	}
	return p
}

// PlanPlacement builds a full cluster placement from the advisor: the best
// compatible pairs share cores, the rest run dedicated.
func (a *Advisor) PlanPlacement(ws []*Workload) Placement {
	return a.model.PlanPairs(a.features(ws))
}

// PlanGroups generalizes PlanPlacement to up to maxPerCore tenants per core
// (the paper's §5.9 deployments host "two or more" workloads per core).
func (a *Advisor) PlanGroups(ws []*Workload, maxPerCore int) Placement {
	return a.model.PlanGroups(a.features(ws), maxPerCore)
}

// feature profiles w at the advisor's training depth. The per-request stats
// come from w's profile memo, so repeated queries synthesize nothing.
func (a *Advisor) feature(w *Workload) collocate.Features {
	return collocate.ExtractFeatures(w, a.cfg, a.requests)
}

func (a *Advisor) features(ws []*Workload) []collocate.Features {
	feats := make([]collocate.Features, len(ws))
	for i, w := range ws {
		feats[i] = a.feature(w)
	}
	return feats
}

// ClusterResult summarizes a multi-core simulation.
type ClusterResult struct {
	PerCore     []*Result // core c's Collocate result
	Normalized  []float64 // per-workload normalized progress (vs a dedicated core)
	TotalSTP    float64   // Σ Normalized: workloads' worth of progress delivered
	CoresUsed   int
	AggUtil     float64 // mean aggregate compute utilization across cores
	WorstTenant float64 // minimum normalized progress across all workloads
}

// SimulateCluster runs every core of the placement under the scheme (each
// core is an independent NPU with its own HBM) and aggregates cluster-level
// metrics: total normalized progress, mean utilization, and the worst
// tenant. Core c runs Collocate over its workloads with seed opt.Seed+c;
// progress is normalized by each workload's single-tenant rate at
// opt.Requests, as in CompareSchemes. Sinks that support sections
// (ChromeTrace, CounterLog) get one section per core.
func SimulateCluster(ws []*Workload, p Placement, scheme Scheme, opt Options) (*ClusterResult, error) {
	if err := p.Validate(len(ws)); err != nil {
		return nil, err
	}
	res := &ClusterResult{Normalized: make([]float64, len(ws)), CoresUsed: len(p)}
	seed := opt.Seed
	utilSum := 0.0
	for c, group := range p {
		core := make([]*Workload, len(group))
		for k, idx := range group {
			core[k] = ws[idx]
		}
		rates, err := sched.SingleTenantRates(core, opt.config(), opt.Requests)
		if err != nil {
			return nil, fmt.Errorf("v10: core %d: %w", c, err)
		}
		opt.beginSection(fmt.Sprintf("core %d", c))
		opt.Seed = seed + uint64(c)
		coreRes, err := Collocate(core, scheme, opt)
		if err != nil {
			return nil, fmt.Errorf("v10: core %d: %w", c, err)
		}
		res.PerCore = append(res.PerCore, coreRes)
		utilSum += coreRes.AggregateUtil()
		for k, norm := range coreRes.NormalizedProgress(rates) {
			res.Normalized[group[k]] = norm
			res.TotalSTP += norm
		}
	}
	if len(p) > 0 {
		res.AggUtil = utilSum / float64(len(p))
		res.WorstTenant = slices.Min(res.Normalized)
	}
	return res, nil
}

// TraceFile is a recorded, replayable operator trace — this repository's
// equivalent of the instruction traces the paper captures on real TPUs.
type TraceFile = trace.File

// RecordTrace captures n requests from a workload into a replayable trace.
func RecordTrace(w *Workload, n int) *TraceFile { return trace.Record(w, n) }

// WriteTrace serializes a trace as JSON.
func WriteTrace(w io.Writer, f *TraceFile) error { return f.WriteJSON(w) }

// ReadTrace parses and validates a JSON trace; use TraceFile.Workload to
// replay it.
func ReadTrace(r io.Reader) (*TraceFile, error) { return trace.ReadJSON(r) }
