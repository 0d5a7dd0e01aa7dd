package collocate

import (
	"testing"

	"v10/internal/models"
	"v10/internal/trace"
)

// planModel trains a model over the named model-zoo workloads at their
// reference batch, scoring pairs with fakePerf, and returns it with the
// workloads' features.
func planModel(t *testing.T, names []string, seed uint64) (*Model, []Features) {
	t.Helper()
	var ws []*trace.Workload
	var feats []Features
	for i, n := range names {
		s, ok := models.ByName(n)
		if !ok {
			t.Fatalf("unknown model %s", n)
		}
		w := s.Workload(s.RefBatch, uint64(i+1), cfg)
		ws = append(ws, w)
		feats = append(feats, ExtractFeatures(w, cfg, 2))
	}
	m, err := Train(ws, feats, fakePerf, TrainConfig{K: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m, feats
}

// checkCover fails unless p places every workload in [0, n) exactly once
// on non-empty cores.
func checkCover(t *testing.T, p [][]int, n int) {
	t.Helper()
	seen := make([]bool, n)
	for c, group := range p {
		if len(group) == 0 {
			t.Fatalf("core %d of %v is empty", c, p)
		}
		for _, w := range group {
			if w < 0 || w >= n || seen[w] {
				t.Fatalf("workload %d out of range or placed twice in %v", w, p)
			}
			seen[w] = true
		}
	}
	for w, ok := range seen {
		if !ok {
			t.Fatalf("workload %d not placed in %v", w, p)
		}
	}
}

func TestAdvisorPlacementCoversAll(t *testing.T) {
	m, feats := planModel(t, []string{"BERT", "DLRM", "NCF", "ResNet", "Transformer", "MNIST"}, 1)
	p := m.PlanPairs(feats)
	checkCover(t, p, len(feats))
	for _, g := range p {
		if len(g) > 2 {
			t.Fatalf("pair plan has a group of %d: %v", len(g), p)
		}
	}
}

func TestAdvisorGroupsRespectsCapAndCoverage(t *testing.T) {
	m, feats := planModel(t, []string{"BERT", "DLRM", "NCF", "ResNet", "Transformer", "MNIST", "RetinaNet"}, 4)
	for _, cap := range []int{1, 2, 3, 4} {
		p := m.PlanGroups(feats, cap)
		checkCover(t, p, len(feats))
		for _, g := range p {
			if len(g) > cap {
				t.Fatalf("cap %d violated: group %v", cap, g)
			}
		}
	}
	// Larger caps should never need more cores.
	small := len(m.PlanGroups(feats, 2))
	large := len(m.PlanGroups(feats, 4))
	if large > small {
		t.Fatalf("cap 4 uses %d cores, cap 2 uses %d", large, small)
	}
}
