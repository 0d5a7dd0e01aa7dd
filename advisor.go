package v10

import (
	"fmt"

	"v10/internal/collocate"
)

// Advisor is the clustering-based collocation advisor (§3.4): it clusters
// workloads by resource signature (PCA + K-Means) and predicts whether a
// pair will benefit from sharing a core, using offline-profiled
// inter-cluster collocation performance.
type Advisor struct {
	cfg       Config
	model     *collocate.Model
	requests  int
	benefitAt float64
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
	feats := make([]collocate.Features, len(training))
	for i, w := range training {
		feats[i] = collocate.ExtractFeatures(w, cfg, requests)
	}
	perf := collocate.SimPairPerf(cfg, requests)
	model, err := collocate.Train(training, feats, perf, collocate.TrainConfig{
		K:           opt.Clusters,
		Threshold:   opt.Threshold,
		PairSamples: opt.PairSamples,
		Seed:        opt.Seed,
		Parallel:    opt.Parallel,
	})
	if err != nil {
		return nil, fmt.Errorf("v10: training advisor: %w", err)
	}
	threshold := opt.Threshold
	if threshold <= 0 {
		threshold = 1.3
	}
	return &Advisor{cfg: cfg, model: model, requests: requests, benefitAt: threshold}, nil
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
// the §3.5 "put it all together" dispatch step.
func (a *Advisor) PlanPairs(ws []*Workload) (pairs [][2]int, alone []int) {
	type cand struct {
		i, j int
		gain float64
	}
	var cands []cand
	feats := a.features(ws)
	for i := 0; i < len(ws); i++ {
		for j := i + 1; j < len(ws); j++ {
			gain := a.model.PredictPerf(feats[i], feats[j])
			if gain >= a.threshold() {
				cands = append(cands, cand{i, j, gain})
			}
		}
	}
	// Sort by descending gain (stable on index for determinism).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && better(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	used := make([]bool, len(ws))
	for _, c := range cands {
		if used[c.i] || used[c.j] {
			continue
		}
		used[c.i], used[c.j] = true, true
		pairs = append(pairs, [2]int{c.i, c.j})
	}
	for i := range ws {
		if !used[i] {
			alone = append(alone, i)
		}
	}
	return pairs, alone
}

func better(a, b struct {
	i, j int
	gain float64
}) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

func (a *Advisor) threshold() float64 { return a.benefitAt }
