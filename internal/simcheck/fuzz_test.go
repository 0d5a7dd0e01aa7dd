package simcheck

import (
	"fmt"
	"math"
	"testing"

	"v10/internal/collocate"
	"v10/internal/trace"
)

// FuzzSchedRun feeds random seeds through the full trial harness: generate a
// scenario, run every scheme with the invariant checker attached, then the
// differential oracles. Any violation fails the fuzz run with the seed that
// reproduces it (replay with `go run ./cmd/v10check -replay` after saving the
// repro, or simply rerun the seed).
func FuzzSchedRun(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Add(uint64(1<<63) + 12345)
	base, err := FindArm("base")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if r := base.Trial(seed); r != nil {
			t.Fatalf("seed %d:\n%s", seed, join(r.Problems))
		}
	})
}

// FuzzCollocateTrain drives the collocation-advisor pipeline (feature
// extraction → PCA/K-Means clustering → pairwise simulation profiling →
// prediction) over generated workload sets, checking the model never emits
// NaN/Inf and that PredictPerf is symmetric in its arguments.
func FuzzCollocateTrain(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		sc := GenScenario(seed)
		// A small but diverse training set: this scenario's workloads plus
		// the next seed's, renamed to keep identities distinct.
		sc2 := GenScenario(seed + 1)
		var wls []*trace.Workload
		for si, s := range []*Scenario{sc, sc2} {
			for wi, w := range buildWorkloads(s.Workloads, false) {
				w.Name = fmt.Sprintf("S%dW%d", si, wi)
				wls = append(wls, w)
			}
		}
		feats := make([]collocate.Features, len(wls))
		for i, w := range wls {
			feats[i] = collocate.ExtractFeatures(w, sc.Config, 1)
			for j, x := range feats[i].Vec {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("seed %d: feature %d of %s is %v", seed, j, w.Name, x)
				}
			}
		}
		model, err := collocate.Train(wls, feats, collocate.SimPairPerf(sc.Config, 1), collocate.TrainConfig{
			K: 2, PCADims: 2, PairSamples: 1, Parallel: 1, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: Train: %v", seed, err)
		}
		for i := range feats {
			for j := range feats {
				p := model.PredictPerf(feats[i], feats[j])
				if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
					t.Fatalf("seed %d: PredictPerf(%d,%d) = %v", seed, i, j, p)
				}
				if q := model.PredictPerf(feats[j], feats[i]); q != p {
					t.Fatalf("seed %d: PredictPerf not symmetric: (%d,%d)=%v vs (%d,%d)=%v", seed, i, j, p, j, i, q)
				}
			}
		}
	})
}
