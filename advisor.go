package v10

import (
	"fmt"

	"v10/internal/collocate"
)

// ErrTooFewWorkloads is returned (wrapped) by TrainAdvisor when the training
// population has fewer than two workloads to cluster.
var ErrTooFewWorkloads = collocate.ErrTooFewWorkloads

// Advisor is the clustering-based collocation advisor (§3.4): it clusters
// workloads by resource signature (PCA + K-Means) and predicts whether a
// pair will benefit from sharing a core, using offline-profiled
// inter-cluster collocation performance.
type Advisor struct {
	cfg      Config
	model    *collocate.Model
	requests int
}

// AdvisorOptions tune training.
type AdvisorOptions struct {
	Config Config
	// Clusters is K in K-Means (paper: 5).
	Clusters int
	// Threshold is the benefit cutoff on V10-Full/PMT throughput (paper: 1.3).
	Threshold float64
	// ProfileRequests per simulation during offline pairwise profiling.
	ProfileRequests int
	// PairSamples bounds pairs profiled per cluster pair (0 = all).
	PairSamples int
	Seed        uint64
	// Parallel bounds the worker goroutines used for the O(n²) pairwise
	// profiling simulations (0 = GOMAXPROCS, 1 = serial). The trained model
	// is bit-identical at any worker count.
	Parallel int
}

// TrainAdvisor profiles the training workloads and builds the cluster
// database. Training cost is dominated by the pairwise collocation
// simulations; results are memoized within the call, and the simulations fan
// out across opt.Parallel workers (GOMAXPROCS by default) with bit-identical
// results to a serial run.
func TrainAdvisor(training []*Workload, opt AdvisorOptions) (*Advisor, error) {
	cfg := opt.Config
	if cfg.SADim == 0 {
		cfg = DefaultConfig()
	}
	requests := opt.ProfileRequests
	if requests <= 0 {
		requests = 3
	}
	model, err := collocate.TrainSimulated(training, cfg, requests, collocate.TrainConfig{
		K:           opt.Clusters,
		Threshold:   opt.Threshold,
		PairSamples: opt.PairSamples,
		Seed:        opt.Seed,
		Parallel:    opt.Parallel,
	})
	if err != nil {
		return nil, fmt.Errorf("v10: training advisor: %w", err)
	}
	return &Advisor{cfg: cfg, model: model, requests: requests}, nil
}

// Clusters returns the number of clusters in the trained model.
func (a *Advisor) Clusters() int { return a.model.K() }

// Cluster assigns a workload to its cluster.
func (a *Advisor) Cluster(w *Workload) int {
	return a.model.PredictCluster(a.feature(w))
}

// PredictGain estimates the pair's collocation performance: the predicted
// V10-Full aggregated throughput relative to PMT time sharing.
func (a *Advisor) PredictGain(x, y *Workload) float64 {
	return a.model.PredictPerf(a.feature(x), a.feature(y))
}

// ShouldCollocate reports whether the pair clears the benefit threshold and
// should be dispatched to the same NPU core.
func (a *Advisor) ShouldCollocate(x, y *Workload) bool {
	return a.model.ShouldCollocate(a.feature(x), a.feature(y))
}

// PlanPairs greedily pairs the given workloads for collocation: the
// highest-predicted-gain compatible pairs share cores; leftovers run alone.
// It returns the pair list and the indices of workloads left unpaired —
// the §3.5 "put it all together" dispatch step, as PlanPlacement's groups.
func (a *Advisor) PlanPairs(ws []*Workload) (pairs [][2]int, alone []int) {
	for _, group := range a.PlanPlacement(ws) {
		if len(group) == 2 {
			pairs = append(pairs, [2]int{group[0], group[1]})
		} else {
			alone = append(alone, group[0])
		}
	}
	return pairs, alone
}
