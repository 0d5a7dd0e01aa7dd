package collocate

import (
	"math"
	"testing"

	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/trace"
)

var cfg = npu.DefaultConfig()

// zoo returns workload instances across several model families.
func zoo(t *testing.T, batches []int) ([]*trace.Workload, []Features) {
	t.Helper()
	var ws []*trace.Workload
	var fs []Features
	for i, s := range models.Specs() {
		for _, b := range batches {
			if s.OOM(b, cfg.HBMBytes) {
				continue
			}
			w := s.Workload(b, uint64(i+1), cfg)
			ws = append(ws, w)
			fs = append(fs, ExtractFeatures(w, cfg, 3))
		}
	}
	return ws, fs
}

// fakePerf scores pairs by FU complementarity: SA-heavy + VU-heavy is good,
// same-type pairs are bad. Deterministic, no simulation.
func fakePerf(a, b *trace.Workload) (float64, error) {
	fa := ExtractFeatures(a, cfg, 1)
	fb := ExtractFeatures(b, cfg, 1)
	// Complementary sa_time_frac (feature 7) → higher performance.
	return 1 + math.Abs(fa.Vec[7]-fb.Vec[7]), nil
}

func TestExtractFeaturesShape(t *testing.T) {
	s, _ := models.ByName("BERT")
	w := s.Workload(32, 1, cfg)
	f := ExtractFeatures(w, cfg, 3)
	if len(f.Vec) != len(FeatureNames) {
		t.Fatalf("feature count = %d, want %d", len(f.Vec), len(FeatureNames))
	}
	if f.Name != "BERT-b32" || f.Model != "BERT" {
		t.Fatalf("identity wrong: %q %q", f.Name, f.Model)
	}
	// Utilization features must be fractions.
	for i := 0; i < 3; i++ {
		if f.Vec[i] < 0 || f.Vec[i] > 1 {
			t.Fatalf("feature %s = %v out of [0,1]", FeatureNames[i], f.Vec[i])
		}
	}
	// BERT is SA-heavy.
	if f.Vec[7] < 0.5 {
		t.Fatalf("BERT sa_time_frac = %v, want > 0.5", f.Vec[7])
	}
}

func TestTrainAndPredictClusters(t *testing.T) {
	ws, fs := zoo(t, []int{8, 32})
	m, err := Train(ws, fs, fakePerf, TrainConfig{K: 5, PairSamples: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() < 2 || m.K() > 5 {
		t.Fatalf("cluster count = %d", m.K())
	}
	// Training instances must predict into valid clusters.
	for _, f := range fs {
		c := m.PredictCluster(f)
		if c < 0 || c >= m.K() {
			t.Fatalf("cluster %d out of range", c)
		}
	}
	// Same workload instance → same cluster both times (deterministic).
	if m.PredictCluster(fs[0]) != m.PredictCluster(fs[0]) {
		t.Fatal("PredictCluster nondeterministic")
	}
}

func TestSimilarWorkloadsClusterTogether(t *testing.T) {
	ws, fs := zoo(t, []int{32})
	m, err := Train(ws, fs, fakePerf, TrainConfig{K: 4, PairSamples: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string) Features {
		for _, f := range fs {
			if f.Name == name {
				return f
			}
		}
		t.Fatalf("missing %s", name)
		return Features{}
	}
	// BERT and Transformer are both SA-dominant NLP models with long ops;
	// DLRM is a short-op VU-dominant recommender. BERT should sit closer to
	// Transformer than to DLRM in cluster space.
	bert, tfmr, dlrm := find("BERT-b32"), find("TFMR-b32"), find("DLRM-b32")
	cb, ct, cd := m.PredictCluster(bert), m.PredictCluster(tfmr), m.PredictCluster(dlrm)
	if cb == cd && cb != ct {
		t.Fatalf("BERT clustered with DLRM (%d) but not Transformer (%d)", cd, ct)
	}
}

func TestPredictPerfComplementarity(t *testing.T) {
	ws, fs := zoo(t, []int{8, 32})
	m, err := Train(ws, fs, fakePerf, TrainConfig{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string) Features {
		for _, f := range fs {
			if f.Name == name {
				return f
			}
		}
		t.Fatalf("missing %s", name)
		return Features{}
	}
	bert, dlrm := find("BERT-b32"), find("DLRM-b32")
	tfmr := find("TFMR-b32")
	comp := m.PredictPerf(bert, dlrm) // complementary
	conf := m.PredictPerf(bert, tfmr) // conflicting (both SA-heavy)
	if comp <= conf {
		t.Fatalf("complementary perf %v <= conflicting perf %v", comp, conf)
	}
}

func TestTrainValidation(t *testing.T) {
	ws, fs := zoo(t, []int{32})
	if _, err := Train(ws[:1], fs[:1], fakePerf, TrainConfig{}); err == nil {
		t.Fatal("single-workload training accepted")
	}
	if _, err := Train(ws, fs[:2], fakePerf, TrainConfig{}); err == nil {
		t.Fatal("mismatched features accepted")
	}
}

func TestBaselinePredictors(t *testing.T) {
	a := Features{Vec: []float64{0.5, 0.1, 0.3, 0, 0, 0, 0, 0.9}}
	b := Features{Vec: []float64{0.1, 0.4, 0.4, 0, 0, 0, 0, 0.2}}
	c := Features{Vec: []float64{0.6, 0.2, 0.8, 0, 0, 0, 0, 0.8}}
	d := Features{Vec: []float64{0.9, 0.9, 0.3, 0, 0, 0, 0, 0.5}}

	if !(RandomPolicy{}).Predict(a, c) {
		t.Fatal("Random must always collocate")
	}
	h := HeuristicPolicy{}
	if !h.Predict(a, b) {
		t.Fatal("heuristic should accept a+b (fits)")
	}
	if h.Predict(a, c) {
		t.Fatal("heuristic should reject a+c (HBM oversubscribed)")
	}
	if h.Predict(d, d) {
		t.Fatal("heuristic should reject d+d (aggregate compute oversubscribed)")
	}
	// The heuristic's blind spot (by design, like the paper's): per-FU
	// conflict hidden by aggregation — two SA-saturating workloads fit the
	// aggregate budget.
	e := Features{Vec: []float64{0.8, 0.1, 0.3, 0, 0, 0, 0, 0.9}}
	if !h.Predict(e, e) {
		t.Fatal("aggregate heuristic should (wrongly) accept two SA-heavy workloads")
	}
}

// evaluate scores p's predictions on pairs the way CrossValidate does.
func evaluate(p Predictor, pairs []TestPair, threshold float64) EvalResult {
	preds := make([]bool, len(pairs))
	for i, tc := range pairs {
		preds[i] = p.Predict(tc.A, tc.B)
	}
	return scorePredictions(p.Name(), pairs, preds, threshold)
}

func TestEvaluateConfusion(t *testing.T) {
	pairs := []TestPair{
		{Perf: 1.5}, // positive
		{Perf: 1.4}, // positive
		{Perf: 1.0}, // negative
		{Perf: 0.9}, // negative
	}
	res := evaluate(RandomPolicy{}, pairs, 1.3)
	if res.Accuracy != 0.5 || res.TPRate != 1 || res.TNRate != 0 || res.FPRate != 1 {
		t.Fatalf("Random eval wrong: %+v", res)
	}
	if res.WorstPerf != 0.9 {
		t.Fatalf("worst perf = %v, want 0.9", res.WorstPerf)
	}
}

type never struct{}

func (never) Name() string               { return "never" }
func (never) Predict(a, b Features) bool { return false }

func TestEvaluateNeverPredictor(t *testing.T) {
	pairs := []TestPair{{Perf: 1.5}, {Perf: 1.0}}
	res := evaluate(never{}, pairs, 1.3)
	if res.Accuracy != 0.5 || res.TNRate != 1 || res.TPRate != 0 {
		t.Fatalf("never eval wrong: %+v", res)
	}
	if res.WorstPerf != 1 {
		t.Fatalf("no positives → worst should default to 1, got %v", res.WorstPerf)
	}
}

func TestCrossValidateClusteringBeatsRandomBaseRate(t *testing.T) {
	ws, fs := zoo(t, []int{32})
	results, err := CrossValidate(ws, fs, fakePerf, TrainConfig{K: 4, Threshold: 1.3, PairSamples: 6, Seed: 7},
		func(m *Model) []Predictor {
			return []Predictor{RandomPolicy{}, HeuristicPolicy{}, ClusteringPolicy{m}}
		})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]EvalResult{}
	for _, r := range results {
		byName[r.Predictor] = r
	}
	rnd, ok1 := byName["Random"]
	clu, ok2 := byName["Clustering"]
	if !ok1 || !ok2 {
		t.Fatalf("missing predictors in results: %v", results)
	}
	if rnd.N == 0 || clu.N == 0 {
		t.Fatal("no test pairs evaluated")
	}
	if clu.Accuracy <= rnd.Accuracy {
		t.Fatalf("clustering accuracy %v <= random %v", clu.Accuracy, rnd.Accuracy)
	}
	// Random always collocates: TP must be 100%, TN 0 (when both classes occur).
	if rnd.TPRate != 1 {
		t.Fatalf("random TP rate = %v, want 1", rnd.TPRate)
	}
}

func TestCrossValidateNeedsThreeFamilies(t *testing.T) {
	ws, fs := zoo(t, []int{32})
	_, err := CrossValidate(ws[:2], fs[:2], fakePerf, TrainConfig{}, func(m *Model) []Predictor {
		return []Predictor{RandomPolicy{}}
	})
	if err == nil {
		t.Fatal("2-family cross-validation accepted")
	}
}

func TestSimPairPerfComplementaryBeatsConflicting(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed oracle is slow")
	}
	perf := SimPairPerf(cfg, 3)
	bert, _ := models.ByName("BERT")
	dlrm, _ := models.ByName("DLRM")
	tfmr, _ := models.ByName("Transformer")
	b := bert.Workload(32, 1, cfg)
	d := dlrm.Workload(32, 2, cfg)
	tf := tfmr.Workload(32, 3, cfg)

	comp, err := perf(b, d)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := perf(b, tf)
	if err != nil {
		t.Fatal(err)
	}
	if comp <= 1 {
		t.Fatalf("BERT+DLRM V10/PMT = %v, want > 1", comp)
	}
	if comp <= conf {
		t.Fatalf("complementary pair (%v) should beat conflicting pair (%v)", comp, conf)
	}
	// Memoization: repeated call returns identical value.
	again, _ := perf(d, b)
	if again != comp {
		t.Fatalf("cache miss on symmetric pair: %v vs %v", again, comp)
	}
}
