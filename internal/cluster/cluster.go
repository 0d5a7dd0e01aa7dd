// Package cluster models the paper's §3.5 deployment story: a pool of NPU
// cores serving a pool of ML inference workloads. The collocation mechanism
// groups compatible workloads, each group is dispatched to one core, and
// every core runs the V10 operator scheduler (or PMT, for comparison).
// Cores are independent — each has its own SA/VU/vmem/HBM — matching the
// paper's observation that V10 "scales easily by having more NPU cores".
package cluster

import (
	"fmt"

	"v10/internal/collocate"
	"v10/internal/metrics"
	"v10/internal/npu"
	"v10/internal/sched"
	"v10/internal/trace"
)

// Placement assigns workload indices to cores: Placement[c] lists the
// workloads sharing core c.
type Placement [][]int

// Validate checks that every workload in [0, n) appears exactly once and no
// core is empty.
func (p Placement) Validate(n int) error {
	seen := make([]bool, n)
	for c, group := range p {
		if len(group) == 0 {
			return fmt.Errorf("cluster: core %d has no workloads", c)
		}
		for _, w := range group {
			if w < 0 || w >= n {
				return fmt.Errorf("cluster: workload index %d out of range", w)
			}
			if seen[w] {
				return fmt.Errorf("cluster: workload %d placed twice", w)
			}
			seen[w] = true
		}
	}
	for w, ok := range seen {
		if !ok {
			return fmt.Errorf("cluster: workload %d not placed", w)
		}
	}
	return nil
}

// Cores returns the number of cores the placement uses.
func (p Placement) Cores() int { return len(p) }

// NaivePlacement pairs workloads in argument order (the "blind collocation"
// the paper warns about): 2 per core.
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

// AdvisorPlacement pairs workloads using a trained collocation model:
// highest predicted-gain compatible pairs share cores; leftovers get
// dedicated cores.
func AdvisorPlacement(model *collocate.Model, feats []collocate.Features) Placement {
	n := len(feats)
	type cand struct {
		i, j int
		gain float64
	}
	var cands []cand
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if model.ShouldCollocate(feats[i], feats[j]) {
				cands = append(cands, cand{i, j, model.PredictPerf(feats[i], feats[j])})
			}
		}
	}
	// Descending gain, deterministic tie-break.
	for a := 1; a < len(cands); a++ {
		for b := a; b > 0; b-- {
			x, y := cands[b], cands[b-1]
			if x.gain > y.gain || (x.gain == y.gain && (x.i < y.i || (x.i == y.i && x.j < y.j))) {
				cands[b], cands[b-1] = y, x
			} else {
				break
			}
		}
	}
	used := make([]bool, n)
	var p Placement
	for _, c := range cands {
		if used[c.i] || used[c.j] {
			continue
		}
		used[c.i], used[c.j] = true, true
		p = append(p, []int{c.i, c.j})
	}
	for i := 0; i < n; i++ {
		if !used[i] {
			p = append(p, []int{i})
		}
	}
	return p
}

// AdvisorGroups generalizes AdvisorPlacement to groups of up to maxPerCore
// workloads (the paper's §5.9 shows cores hosting "two or more collocated
// workloads grouped by our clustering mechanism"). Groups grow greedily: a
// workload joins the group whose minimum pairwise predicted performance with
// it stays above the model's threshold, preferring the best fit.
func AdvisorGroups(model *collocate.Model, feats []collocate.Features, maxPerCore int) Placement {
	if maxPerCore < 1 {
		maxPerCore = 1
	}
	n := len(feats)
	if maxPerCore == 1 {
		p := make(Placement, n)
		for i := range p {
			p[i] = []int{i}
		}
		return p
	}
	assigned := make([]bool, n)
	var p Placement
	// Seed groups from the best pairs, then extend.
	base := AdvisorPlacement(model, feats)
	for _, group := range base {
		var g []int
		for _, w := range group {
			if !assigned[w] {
				g = append(g, w)
				assigned[w] = true
			}
		}
		if len(g) == 0 {
			continue // fully absorbed into an earlier group
		}
		for len(g) < maxPerCore {
			best, bestFit := -1, 0.0
			for cand := 0; cand < n; cand++ {
				if assigned[cand] {
					continue
				}
				fit := model.GroupFit(feats, g, cand)
				if fit > bestFit {
					best, bestFit = cand, fit
				}
			}
			if best < 0 {
				break
			}
			g = append(g, best)
			assigned[best] = true
		}
		p = append(p, g)
	}
	for i := 0; i < n; i++ {
		if !assigned[i] {
			p = append(p, []int{i})
		}
	}
	return p
}

// Options configure a cluster simulation.
type Options struct {
	Config   npu.CoreConfig // per-core configuration
	Requests int            // requests per workload per core run
	UsePMT   bool           // run PMT instead of V10-Full on every core
	Seed     uint64
}

// Result summarizes a cluster run.
type Result struct {
	PerCore     []*metrics.RunResult
	Normalized  []float64 // per-workload normalized progress (vs dedicated core)
	TotalSTP    float64   // Σ Normalized: workloads' worth of progress delivered
	CoresUsed   int
	AggUtil     float64 // mean aggregate compute utilization across cores
	WorstTenant float64 // minimum normalized progress across all workloads
}

// Run simulates every core of the placement and aggregates cluster-level
// metrics. Single-tenant rates for normalization are measured on a dedicated
// core per workload.
func Run(workloads []*trace.Workload, p Placement, opts Options) (*Result, error) {
	if opts.Config.SADim == 0 {
		opts.Config = npu.DefaultConfig()
	}
	if opts.Requests <= 0 {
		opts.Requests = 5
	}
	if err := p.Validate(len(workloads)); err != nil {
		return nil, err
	}

	res := &Result{
		Normalized:  make([]float64, len(workloads)),
		CoresUsed:   p.Cores(),
		WorstTenant: 1e18,
	}
	utilSum := 0.0
	for c, group := range p {
		ws := make([]*trace.Workload, len(group))
		for k, idx := range group {
			ws[k] = workloads[idx]
		}
		rates, err := sched.SingleTenantRates(ws, opts.Config, opts.Requests)
		if err != nil {
			return nil, fmt.Errorf("cluster: core %d: %w", c, err)
		}
		var coreRes *metrics.RunResult
		if opts.UsePMT {
			coreRes, err = sched.Run(ws, sched.Options{
				Config: opts.Config, Policy: sched.PMT,
				RequestsPerWorkload: opts.Requests, Seed: opts.Seed + uint64(c),
			})
		} else {
			so := sched.FullOptions()
			so.Config = opts.Config
			so.RequestsPerWorkload = opts.Requests
			coreRes, err = sched.Run(ws, so)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: core %d: %w", c, err)
		}
		res.PerCore = append(res.PerCore, coreRes)
		utilSum += coreRes.AggregateUtil()
		for k, idx := range group {
			norm := coreRes.NormalizedProgress(rates)[k]
			res.Normalized[idx] = norm
			res.TotalSTP += norm
			if norm < res.WorstTenant {
				res.WorstTenant = norm
			}
		}
	}
	if p.Cores() > 0 {
		res.AggUtil = utilSum / float64(p.Cores())
	}
	if res.WorstTenant == 1e18 {
		res.WorstTenant = 0
	}
	return res, nil
}
