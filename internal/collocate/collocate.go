// Package collocate implements V10's clustering-based workload collocation
// mechanism (paper §3.4): workloads are characterized by resource-utilization
// features, compressed with PCA, clustered with K-Means, and pairwise
// inter-cluster collocation performance profiled offline predicts whether two
// workloads should share an NPU core. The Random (collocate blindly) and
// Heuristic (aggregate utilization must fit) baselines from Table 2 are also
// provided, along with the leave-two-models-out cross-validation used there.
package collocate

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"v10/internal/mathx"
	"v10/internal/npu"
	"v10/internal/parallel"
	"v10/internal/sched"
	"v10/internal/trace"
)

// Features is a workload's resource signature: exactly what the paper lists —
// SA/VU utilizations, HBM bandwidth consumption, and operator length
// statistics (mean, min, max, log-scaled because lengths span four decades).
type Features struct {
	Name  string // workload instance name, e.g. "BERT-b32"
	Model string // model family (cross-validation groups by this)
	Vec   []float64
}

// FeatureNames documents the order of Features.Vec entries.
var FeatureNames = []string{
	"sa_util", "vu_util", "hbm_util",
	"log_mean_sa_len", "log_mean_vu_len",
	"log_max_sa_len", "log_max_vu_len",
	"sa_time_frac",
}

// ExtractFeatures profiles a workload from its own traces (compiler-style
// offline profiling, no collocation needed) over n requests.
func ExtractFeatures(w *trace.Workload, cfg npu.CoreConfig, n int) Features {
	return ExtractFeaturesInto(w, cfg, n, &trace.Graph{})
}

// ExtractFeaturesInto is ExtractFeatures synthesizing every profiled request
// into the caller's scratch graph (see trace.Workload.RequestInto), so one
// scratch serves any number of workloads.
func ExtractFeaturesInto(w *trace.Workload, cfg npu.CoreConfig, n int, scratch *trace.Graph) Features {
	if n < 1 {
		n = 1
	}
	var sa, vu, serial, bytes float64
	var meanSA, meanVU, maxSA, maxVU float64
	for r := 0; r < n; r++ {
		g, _ := w.RequestInto(r, scratch)
		st := g.ComputeStats()
		// Useful cycles: what hardware performance counters expose. The
		// heuristic baseline therefore under-estimates occupancy conflicts —
		// the paper's 57.6% false-positive rate comes from exactly this gap.
		sa += st.UsefulSACycles
		vu += st.UsefulVUCycles
		serial += float64(st.SerialCycles)
		bytes += st.HBMBytes
		meanSA += st.MeanSALen
		meanVU += st.MeanVULen
		maxSA = math.Max(maxSA, float64(st.MaxSALen))
		maxVU = math.Max(maxVU, float64(st.MaxVULen))
	}
	meanSA /= float64(n)
	meanVU /= float64(n)
	saFrac := 0.0
	if sa+vu > 0 {
		saFrac = sa / (sa + vu)
	}
	vec := []float64{
		safeDiv(sa, serial),
		safeDiv(vu, serial),
		safeDiv(bytes, serial*cfg.HBMBytesPerCycle()),
		log1p(meanSA), log1p(meanVU),
		log1p(maxSA), log1p(maxVU),
		saFrac,
	}
	return Features{Name: w.Name, Model: w.Model, Vec: vec}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func log1p(x float64) float64 { return math.Log1p(x) }

// PairPerf is the collocation-performance oracle: the aggregated throughput
// (STP) of the pair under V10-Full divided by under PMT — Table 2 predicts
// whether this ratio reaches 1.3×.
type PairPerf func(a, b *trace.Workload) (float64, error)

// SimPairPerf returns a PairPerf that measures performance by simulation
// (V10-Full STP over PMT STP, both normalized by single-tenant rates).
//
// Results are memoized by workload *identity* (the pointer, symmetric in
// argument order), not by display name — two distinct workloads that happen
// to share a name cannot silently reuse each other's result; instead the
// oracle reports an explicit ambiguous-duplicate-name error the first time
// the second identity appears. The returned function is goroutine-safe:
// concurrent requests for the same pair wait on a single in-flight
// simulation (singleflight) instead of racing to run it twice.
func SimPairPerf(cfg npu.CoreConfig, requests int) PairPerf {
	var (
		mu    sync.Mutex
		ids   = map[*trace.Workload]int{} // identity → dense cache id
		named = map[string]*trace.Workload{}
		memo  parallel.Memo[[2]int, float64]
	)
	// identify registers a workload's identity under mu, rejecting a second
	// distinct workload with an already-registered name.
	identify := func(w *trace.Workload) (int, error) {
		if id, ok := ids[w]; ok {
			return id, nil
		}
		if prev, ok := named[w.Name]; ok && prev != w {
			return 0, fmt.Errorf(
				"collocate: ambiguous duplicate workload name %q: two distinct workloads share it, so cached pair results would be wrong", w.Name)
		}
		id := len(ids)
		ids[w] = id
		named[w.Name] = w
		return id, nil
	}
	return func(a, b *trace.Workload) (float64, error) {
		mu.Lock()
		ia, err := identify(a)
		if err == nil {
			var ib int
			if ib, err = identify(b); err == nil {
				mu.Unlock()
				key := [2]int{ia, ib}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				return memo.Do(key, func() (float64, error) {
					return simPairPerf(a, b, cfg, requests)
				})
			}
		}
		mu.Unlock()
		return 0, err
	}
}

// simPairPerf runs the three simulations behind one oracle query. Each
// simulation engine is confined to this goroutine; the result depends only on
// the pair, config, and request count, so it is deterministic.
func simPairPerf(a, b *trace.Workload, cfg npu.CoreConfig, requests int) (float64, error) {
	pair := []*trace.Workload{a, b}
	rates, err := sched.SingleTenantRates(pair, cfg, requests)
	if err != nil {
		return 0, err
	}
	pmt, err := sched.Run(pair, sched.Options{
		Config: cfg, Policy: sched.PMT, RequestsPerWorkload: requests, Seed: 1,
	})
	if err != nil {
		return 0, err
	}
	opts := sched.FullOptions()
	opts.Config = cfg
	opts.RequestsPerWorkload = requests
	full, err := sched.Run(pair, opts)
	if err != nil {
		return 0, err
	}
	stpPMT := pmt.STP(rates)
	if stpPMT <= 0 {
		return 0, fmt.Errorf("collocate: PMT STP is zero for %s+%s", a.Name, b.Name)
	}
	return full.STP(rates) / stpPMT, nil
}

// TrainConfig controls clustering-model training.
type TrainConfig struct {
	K           int     // number of clusters (paper Fig. 15 shows 5)
	PCADims     int     // principal components kept
	Threshold   float64 // predicted-beneficial cutoff (paper: 1.3)
	PairSamples int     // max workload pairs profiled per cluster pair (0 = all)
	Seed        uint64
	// Parallel bounds the worker goroutines used for pairwise collocation
	// profiling (the O(n²) fan-out of simulations): 0 means GOMAXPROCS,
	// 1 forces the serial path. Results are bit-identical either way —
	// the pair set, the RNG stream, and the aggregation order do not depend
	// on the worker count.
	Parallel int
}

func (tc TrainConfig) withDefaults() TrainConfig {
	if tc.K <= 0 {
		tc.K = 5
	}
	if tc.PCADims <= 0 {
		tc.PCADims = 3
	}
	if tc.Threshold <= 0 {
		tc.Threshold = 1.3
	}
	return tc
}

// Model is a trained collocation predictor.
type Model struct {
	cfg        TrainConfig
	pca        *mathx.PCA
	km         *mathx.KMeansResult
	perf       [][]float64 // cluster-pair mean collocation performance
	perfKnown  [][]bool
	globalMean float64

	// Online re-clustering state (nil unless cloned via CloneForOnline).
	onlineCounts []int   // per-centroid observation counts (training + online)
	onlineDrift  float64 // cumulative centroid movement in PCA space
	onlineObs    int     // observations folded in since the clone
}

// ClusterOnly fits the PCA + K-Means stage without pairwise profiling. The
// returned model can assign clusters (Fig. 15) but predicts the neutral
// performance 1.0 for every pair until profiled via Train.
func ClusterOnly(feats []Features, tc TrainConfig) (*Model, error) {
	tc = tc.withDefaults()
	if len(feats) < 2 {
		return nil, fmt.Errorf("collocate: need at least 2 workloads to cluster")
	}
	rows := make([][]float64, len(feats))
	for i, f := range feats {
		rows[i] = f.Vec
	}
	data := mathx.MatrixFromRows(rows)
	pca := mathx.FitPCA(data, tc.PCADims)
	projected := pca.TransformAll(data)
	rng := mathx.NewRNG(tc.Seed + 0xc0110ca7e)
	km := mathx.KMeans(projected, tc.K, 50, rng)

	k := km.Centroids.Rows
	m := &Model{cfg: tc, pca: pca, km: km, globalMean: 1}
	m.perf = make([][]float64, k)
	m.perfKnown = make([][]bool, k)
	for i := range m.perf {
		m.perf[i] = make([]float64, k)
		m.perfKnown[i] = make([]bool, k)
	}
	return m, nil
}

// Train builds the cluster database: PCA + K-Means over the training
// workloads' features, then offline pairwise collocation profiling between
// clusters (paper Fig. 14).
func Train(workloads []*trace.Workload, feats []Features, perf PairPerf, tc TrainConfig) (*Model, error) {
	tc = tc.withDefaults()
	if len(workloads) != len(feats) {
		return nil, fmt.Errorf("collocate: %d workloads but %d feature rows", len(workloads), len(feats))
	}
	m, err := ClusterOnly(feats, tc)
	if err != nil {
		return nil, err
	}
	km := m.km
	k := km.Centroids.Rows
	rng := mathx.NewRNG(tc.Seed + 0x9a1f5)

	// Group training instances by cluster.
	byCluster := make([][]int, k)
	for i, c := range km.Labels {
		byCluster[c] = append(byCluster[c], i)
	}

	// Select the pair sample of every cluster pair first, consuming the RNG
	// in the same deterministic order regardless of worker count, then fan
	// the independent oracle queries out across the worker pool.
	type profJob struct {
		ci, cj int
		pairs  [][2]int
	}
	var jobs []profJob
	var flat [][2]int
	for ci := 0; ci < k; ci++ {
		for cj := ci; cj < k; cj++ {
			pairs := clusterPairs(byCluster[ci], byCluster[cj], ci == cj)
			if tc.PairSamples > 0 && len(pairs) > tc.PairSamples {
				shufflePairs(pairs, rng)
				pairs = pairs[:tc.PairSamples]
			}
			jobs = append(jobs, profJob{ci: ci, cj: cj, pairs: pairs})
			flat = append(flat, pairs...)
		}
	}
	vals, err := parallel.Map(context.Background(), len(flat), tc.Parallel,
		func(i int) (float64, error) {
			p := flat[i]
			v, err := perf(workloads[p[0]], workloads[p[1]])
			if err != nil {
				return 0, fmt.Errorf("collocate: profiling %s+%s: %w",
					workloads[p[0]].Name, workloads[p[1]].Name, err)
			}
			return v, nil
		})
	if err != nil {
		return nil, err
	}

	// Aggregate in the serial iteration order so sums (and therefore the
	// model) are bit-identical to a single-worker run.
	var total, count float64
	off := 0
	for _, job := range jobs {
		var sum float64
		var n int
		for _, v := range vals[off : off+len(job.pairs)] {
			sum += v
			n++
		}
		off += len(job.pairs)
		if n > 0 {
			mean := sum / float64(n)
			m.perf[job.ci][job.cj], m.perf[job.cj][job.ci] = mean, mean
			m.perfKnown[job.ci][job.cj], m.perfKnown[job.cj][job.ci] = true, true
			total += sum
			count += float64(n)
		}
	}
	if count > 0 {
		m.globalMean = total / count
	} else {
		m.globalMean = 1
	}
	return m, nil
}

func clusterPairs(a, b []int, same bool) [][2]int {
	var out [][2]int
	if same {
		for i := 0; i < len(a); i++ {
			for j := i + 1; j < len(a); j++ {
				out = append(out, [2]int{a[i], a[j]})
			}
		}
		return out
	}
	for _, i := range a {
		for _, j := range b {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

func shufflePairs(ps [][2]int, rng *mathx.RNG) {
	for i := len(ps) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ps[i], ps[j] = ps[j], ps[i]
	}
}

// K returns the number of clusters in the trained model.
func (m *Model) K() int { return m.km.Centroids.Rows }

// projBuf sizes the stack buffer PredictCluster and Observe project into;
// models with more PCA dimensions than this fall back to a heap slice.
const projBuf = 8

// PredictCluster maps a workload's features to its cluster.
func (m *Model) PredictCluster(f Features) int {
	var buf [projBuf]float64
	return m.km.Predict(m.pca.TransformInto(buf[:0], f.Vec))
}

// PredictPerf estimates the collocation performance of two workloads from
// their clusters' profiled performance; unprofiled cluster pairs fall back to
// the global mean.
func (m *Model) PredictPerf(a, b Features) float64 {
	ca, cb := m.PredictCluster(a), m.PredictCluster(b)
	if m.perfKnown[ca][cb] {
		return m.perf[ca][cb]
	}
	return m.globalMean
}

// ShouldCollocate predicts whether the pair clears the benefit threshold.
func (m *Model) ShouldCollocate(a, b Features) bool {
	return m.clears(m.PredictPerf(a, b))
}

// clears reports whether a predicted performance meets the benefit threshold.
func (m *Model) clears(perf float64) bool { return perf >= m.cfg.Threshold }

// GroupFit scores adding candidate cand to an already-formed group: the
// minimum pairwise predicted performance between cand and every member, or 0
// when any pair falls below the benefit threshold (the group is incompatible)
// or the group is empty. Both the cluster placement planner and the fleet
// dispatcher's spill path rank candidate cores with it.
func (m *Model) GroupFit(feats []Features, group []int, cand int) float64 {
	minPerf := math.Inf(1)
	for _, g := range group {
		perf := m.PredictPerf(feats[g], feats[cand])
		if !m.clears(perf) {
			return 0
		}
		if perf < minPerf {
			minPerf = perf
		}
	}
	if math.IsInf(minPerf, 1) {
		return 0
	}
	return minPerf
}

// ClusterAssignments returns instance name → cluster for the training set
// ordering given (used by the Fig. 15 scatter experiment).
func (m *Model) ClusterAssignments(feats []Features) map[string]int {
	out := make(map[string]int, len(feats))
	for _, f := range feats {
		out[f.Name] = m.PredictCluster(f)
	}
	return out
}

// Predictor decides whether to collocate a pair, given their features.
type Predictor interface {
	Name() string
	Predict(a, b Features) bool
}

// RandomPolicy is the paper's "Random" baseline: collocate blindly (always
// predict beneficial), i.e. random pairing with no filtering.
type RandomPolicy struct{}

// Name implements Predictor.
func (RandomPolicy) Name() string { return "Random" }

// Predict always collocates.
func (RandomPolicy) Predict(a, b Features) bool { return true }

// HeuristicPolicy is the paper's heuristic baseline: "the aggregated
// resource utilization of collocated workloads should not exceed the total
// available resource". It sums each workload's aggregate compute utilization
// (mean of SA and VU) and HBM utilization. Because it aggregates across FU
// types and sees only useful-cycle counters, it misses per-FU occupancy
// conflicts and dynamic contention — the source of its high false-positive
// rate in Table 2.
type HeuristicPolicy struct{}

// Name implements Predictor.
func (HeuristicPolicy) Name() string { return "Heuristic" }

// Predict implements the aggregate-capacity check.
func (HeuristicPolicy) Predict(a, b Features) bool {
	aggA := (a.Vec[0] + a.Vec[1]) / 2
	aggB := (b.Vec[0] + b.Vec[1]) / 2
	return aggA+aggB <= 1 && a.Vec[2]+b.Vec[2] <= 1
}

// ClusteringPolicy wraps a trained Model as a Predictor.
type ClusteringPolicy struct{ Model *Model }

// Name implements Predictor.
func (ClusteringPolicy) Name() string { return "Clustering" }

// Predict implements Predictor.
func (c ClusteringPolicy) Predict(a, b Features) bool { return c.Model.ShouldCollocate(a, b) }

// EvalResult mirrors a row of the paper's Table 2.
type EvalResult struct {
	Predictor string
	Accuracy  float64 // (TP+TN)/N
	TPRate    float64 // TP/(TP+FN): share of actual positives predicted positive
	TNRate    float64 // TN/(TN+FP)
	FPRate    float64 // FP/(FP+TN)
	FNRate    float64 // FN/(FN+TP)
	WorstPerf float64 // minimum actual performance among predicted positives
	N         int
}

// TestPair is one labeled evaluation case.
type TestPair struct {
	A, B Features
	Perf float64 // ground-truth collocation performance
}

// Evaluate scores a predictor against labeled pairs with the given benefit
// threshold.
func Evaluate(p Predictor, pairs []TestPair, threshold float64) EvalResult {
	var tp, tn, fp, fn int
	worst := math.Inf(1)
	for _, tc := range pairs {
		pred := p.Predict(tc.A, tc.B)
		actual := tc.Perf >= threshold
		switch {
		case pred && actual:
			tp++
		case !pred && !actual:
			tn++
		case pred && !actual:
			fp++
		default:
			fn++
		}
		if pred && tc.Perf < worst {
			worst = tc.Perf
		}
	}
	n := len(pairs)
	res := EvalResult{Predictor: p.Name(), N: n}
	if n > 0 {
		res.Accuracy = float64(tp+tn) / float64(n)
	}
	if tp+fn > 0 {
		res.TPRate = float64(tp) / float64(tp+fn)
		res.FNRate = float64(fn) / float64(tp+fn)
	}
	if tn+fp > 0 {
		res.TNRate = float64(tn) / float64(tn+fp)
		res.FPRate = float64(fp) / float64(tn+fp)
	}
	if math.IsInf(worst, 1) {
		res.WorstPerf = 1
	} else {
		res.WorstPerf = worst
	}
	return res
}

// CrossValidate runs the paper's leave-two-models-out protocol: for every
// pair of model families, train on all instances of the other families and
// test on pairs drawn from the held-out instances, aggregating the confusion
// counts across splits. Instances sharing a model family are held out
// together. It returns one EvalResult per predictor-builder.
//
// Splits are independent, so they run on tc.Parallel workers (0 =
// GOMAXPROCS); training inside each split then runs serially to keep the
// total worker count bounded. Split results are merged in split order, so
// the returned EvalResults are bit-identical to a fully serial run. perf is
// shared across concurrent splits and must be goroutine-safe (SimPairPerf
// is).
func CrossValidate(
	workloads []*trace.Workload,
	feats []Features,
	perf PairPerf,
	tc TrainConfig,
	buildPredictors func(m *Model) []Predictor,
) ([]EvalResult, error) {
	tc = tc.withDefaults()
	if len(workloads) != len(feats) {
		return nil, fmt.Errorf("collocate: workload/feature count mismatch")
	}
	modelsOf := map[string][]int{}
	var names []string
	for i, f := range feats {
		if _, ok := modelsOf[f.Model]; !ok {
			names = append(names, f.Model)
		}
		modelsOf[f.Model] = append(modelsOf[f.Model], i)
	}
	sort.Strings(names)
	if len(names) < 3 {
		return nil, fmt.Errorf("collocate: cross-validation needs >= 3 model families, got %d", len(names))
	}

	var splits [][2]string
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			splits = append(splits, [2]string{names[i], names[j]})
		}
	}

	// Each split is self-contained: train on the remaining families, label
	// the held-out pairs with ground truth, and record every predictor's
	// calls. The splits fan out across the worker pool; profiling inside
	// Train stays serial so the pool is the only source of concurrency.
	splitTC := tc
	splitTC.Parallel = 1
	type splitResult struct {
		names []string
		cases []TestPair
		preds [][]bool // per predictor, per case
	}
	results, err := parallel.Map(context.Background(), len(splits), tc.Parallel,
		func(s int) (*splitResult, error) {
			heldOut := map[string]bool{splits[s][0]: true, splits[s][1]: true}
			var trainW []*trace.Workload
			var trainF []Features
			var testIdx []int
			for k, f := range feats {
				if heldOut[f.Model] {
					testIdx = append(testIdx, k)
				} else {
					trainW = append(trainW, workloads[k])
					trainF = append(trainF, f)
				}
			}
			model, err := Train(trainW, trainF, perf, splitTC)
			if err != nil {
				return nil, fmt.Errorf("collocate: split (%s,%s): %w", splits[s][0], splits[s][1], err)
			}
			// Label held-out pairs with ground truth.
			var cases []TestPair
			for a := 0; a < len(testIdx); a++ {
				for b := a + 1; b < len(testIdx); b++ {
					ia, ib := testIdx[a], testIdx[b]
					if feats[ia].Model == feats[ib].Model {
						continue // the paper pairs distinct services
					}
					v, err := perf(workloads[ia], workloads[ib])
					if err != nil {
						return nil, err
					}
					cases = append(cases, TestPair{A: feats[ia], B: feats[ib], Perf: v})
				}
			}
			sr := &splitResult{cases: cases}
			for _, p := range buildPredictors(model) {
				preds := make([]bool, len(cases))
				for ci, c := range cases {
					preds[ci] = p.Predict(c.A, c.B)
				}
				sr.names = append(sr.names, p.Name())
				sr.preds = append(sr.preds, preds)
			}
			return sr, nil
		})
	if err != nil {
		return nil, err
	}

	// Merge in split order so aggregation matches the serial path exactly.
	type agg struct {
		pairs []TestPair
		pred  []bool
	}
	aggregates := map[string]*agg{}
	order := []string{}
	for _, sr := range results {
		for pi, name := range sr.names {
			a, ok := aggregates[name]
			if !ok {
				a = &agg{}
				aggregates[name] = a
				order = append(order, name)
			}
			a.pairs = append(a.pairs, sr.cases...)
			a.pred = append(a.pred, sr.preds[pi]...)
		}
	}

	var out []EvalResult
	for _, name := range order {
		a := aggregates[name]
		out = append(out, scorePredictions(name, a.pairs, a.pred, tc.Threshold))
	}
	return out, nil
}

// scorePredictions aggregates already-made predictions into an EvalResult.
func scorePredictions(name string, pairs []TestPair, preds []bool, threshold float64) EvalResult {
	var tp, tn, fp, fn int
	worst := math.Inf(1)
	for i, tc := range pairs {
		actual := tc.Perf >= threshold
		switch {
		case preds[i] && actual:
			tp++
		case !preds[i] && !actual:
			tn++
		case preds[i] && !actual:
			fp++
		default:
			fn++
		}
		if preds[i] && tc.Perf < worst {
			worst = tc.Perf
		}
	}
	res := EvalResult{Predictor: name, N: len(pairs)}
	if len(pairs) > 0 {
		res.Accuracy = float64(tp+tn) / float64(len(pairs))
	}
	if tp+fn > 0 {
		res.TPRate = float64(tp) / float64(tp+fn)
		res.FNRate = float64(fn) / float64(tp+fn)
	}
	if tn+fp > 0 {
		res.TNRate = float64(tn) / float64(tn+fp)
		res.FPRate = float64(fp) / float64(tn+fp)
	}
	if math.IsInf(worst, 1) {
		res.WorstPerf = 1
	} else {
		res.WorstPerf = worst
	}
	return res
}
