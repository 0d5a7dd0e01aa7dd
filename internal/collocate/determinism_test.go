package collocate

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"v10/internal/npu"
	"v10/internal/sched"
	"v10/internal/trace"
)

// modelFingerprint captures everything a trained model can ever emit:
// centroids, the pairwise performance database, the global mean, and the
// cluster/perf predictions for every training feature row.
type modelFingerprint struct {
	centroids  []float64
	perf       [][]float64
	perfKnown  [][]bool
	globalMean float64
	clusters   []int
	pairPerfs  []float64
}

func fingerprint(m *Model, fs []Features) modelFingerprint {
	fp := modelFingerprint{
		centroids:  append([]float64(nil), m.km.Centroids.Data...),
		perf:       m.perf,
		perfKnown:  m.perfKnown,
		globalMean: m.globalMean,
	}
	for _, f := range fs {
		fp.clusters = append(fp.clusters, m.PredictCluster(f))
	}
	for i := 0; i < len(fs); i++ {
		for j := i + 1; j < len(fs); j++ {
			fp.pairPerfs = append(fp.pairPerfs, m.PredictPerf(fs[i], fs[j]))
		}
	}
	return fp
}

// TestTrainParallelBitIdentical trains with the serial path and with the
// worker pool on the same seed and simulation-backed oracle, and asserts
// the models are bit-identical: same centroids, same cluster-pair
// performance database, same predictions. Every float comparison is exact
// (==, via reflect.DeepEqual) — parallelism must not change aggregation
// order anywhere.
func TestTrainParallelBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed oracle is slow")
	}
	ws, fs := zoo(t, []int{32})
	train := func(workers int) *Model {
		// A fresh oracle per run: sharing one would let the first run's cache
		// serve the second and mask an ordering bug.
		perf := SimPairPerf(cfg, 2)
		m, err := Train(ws, fs, perf, TrainConfig{K: 4, PairSamples: 3, Seed: 11, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial := fingerprint(train(1), fs)
	for _, workers := range []int{2, 8} {
		par := fingerprint(train(workers), fs)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("model trained with %d workers differs from serial:\nserial: %+v\nparallel: %+v",
				workers, serial, par)
		}
	}
}

// simPairPerf is the unmemoized oracle query SimPairPerf memoizes: each
// workload alone, then the pair under PMT and under V10-Full.
func simPairPerf(a, b *trace.Workload, cfg npu.CoreConfig, requests int) (float64, error) {
	rates, err := sched.SingleTenantRates([]*trace.Workload{a, b}, cfg, requests)
	if err != nil {
		return 0, err
	}
	return pairPerf(a, b, rates, cfg, requests)
}

// TestSimPairPerfMatchesUnmemoized checks the memoized oracle, which runs
// each workload alone once, against simPairPerf, which runs both alone for
// every pair: every pair Train asks about must get the same bits.
func TestSimPairPerfMatchesUnmemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed oracle is slow")
	}
	ws, fs := zoo(t, []int{32})
	perf := SimPairPerf(cfg, 2)
	var mu sync.Mutex
	got := map[[2]*trace.Workload]float64{}
	record := func(a, b *trace.Workload) (float64, error) {
		v, err := perf(a, b)
		mu.Lock()
		got[[2]*trace.Workload{a, b}] = v
		mu.Unlock()
		return v, err
	}
	if _, err := Train(ws, fs, record, TrainConfig{K: 4, PairSamples: 3, Seed: 11, Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("Train asked about no pair")
	}
	for p, v := range got {
		want, err := simPairPerf(p[0], p[1], cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("%s+%s: memoized %v, unmemoized %v", p[0].Name, p[1].Name, v, want)
		}
	}
}

// TestCrossValidateParallelBitIdentical runs the leave-two-out protocol
// serially and with parallel splits and asserts identical EvalResult
// numbers (a cheap deterministic oracle keeps it fast enough for -short).
func TestCrossValidateParallelBitIdentical(t *testing.T) {
	ws, fs := zoo(t, []int{8, 32})
	run := func(workers int) []EvalResult {
		results, err := CrossValidate(ws, fs, fakePerf,
			TrainConfig{K: 4, Threshold: 1.3, PairSamples: 6, Seed: 7, Parallel: workers},
			func(m *Model) []Predictor {
				return []Predictor{RandomPolicy{}, HeuristicPolicy{}, ClusteringPolicy{m}}
			})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	serial := run(1)
	for _, workers := range []int{3, 8} {
		if par := run(workers); !reflect.DeepEqual(serial, par) {
			t.Fatalf("cross-validation with %d workers differs from serial:\nserial: %+v\nparallel: %+v",
				workers, serial, par)
		}
	}
}

// tinyWorkload builds a synthetic two-op workload so SimPairPerf tests
// don't pay for full model traces.
func tinyWorkload(name string, computeSA, computeVU int64) *trace.Workload {
	gen := func(int) *trace.Graph {
		return &trace.Graph{Ops: []trace.Op{
			{ID: 0, Kind: trace.KindSA, Compute: computeSA, FLOPs: 1, HBMBytes: 64},
			{ID: 1, Kind: trace.KindVU, Compute: computeVU, Deps: []int{0}, FLOPs: 1, HBMBytes: 64},
		}}
	}
	return trace.NewWorkload(name, name, 1, gen)
}

// TestSimPairPerfRejectsAmbiguousDuplicateNames covers the memo-poisoning
// bug: two distinct workloads sharing a display name must be rejected, not
// silently served each other's cached result.
func TestSimPairPerfRejectsAmbiguousDuplicateNames(t *testing.T) {
	perf := SimPairPerf(cfg, 1)
	a := tinyWorkload("dup", 1000, 4000)
	b := tinyWorkload("other", 4000, 1000)
	if _, err := perf(a, b); err != nil {
		t.Fatal(err)
	}
	imposter := tinyWorkload("dup", 9000, 9000) // distinct workload, same name
	if _, err := perf(imposter, b); err == nil {
		t.Fatal("distinct workload reusing the name 'dup' was accepted; its cached result would be wrong")
	}
	// The original identity keeps working after the rejection.
	if _, err := perf(b, a); err != nil {
		t.Fatalf("original pair broken after duplicate rejection: %v", err)
	}
}

// TestSimPairPerfConcurrentSameValue hammers the oracle from many
// goroutines (run under -race in CI): every caller must observe the same
// value for the same pair, whichever goroutine ran the simulation.
func TestSimPairPerfConcurrentSameValue(t *testing.T) {
	perf := SimPairPerf(cfg, 1)
	a := tinyWorkload("sa-heavy", 6000, 1000)
	b := tinyWorkload("vu-heavy", 1000, 6000)
	c := tinyWorkload("balanced", 3000, 3000)
	pairs := [][2]*trace.Workload{{a, b}, {b, a}, {a, c}, {c, b}}

	const callers = 12
	got := make([][]float64, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			defer wg.Done()
			vals := make([]float64, len(pairs))
			for i, p := range pairs {
				v, err := perf(p[0], p[1])
				if err != nil {
					t.Error(err)
					return
				}
				vals[i] = v
			}
			got[g] = vals
		}(g)
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		if !reflect.DeepEqual(got[0], got[g]) {
			t.Fatalf("goroutine %d saw %v, goroutine 0 saw %v", g, got[g], got[0])
		}
	}
	// Symmetric pair (a,b)/(b,a) must share one cache entry.
	if got[0][0] != got[0][1] {
		t.Fatalf("symmetric lookup differs: %v vs %v", got[0][0], got[0][1])
	}
}
