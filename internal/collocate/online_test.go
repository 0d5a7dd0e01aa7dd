package collocate

import (
	"reflect"
	"testing"
)

func trainedZooModel(t *testing.T) (*Model, []Features) {
	t.Helper()
	ws, fs := zoo(t, []int{8, 32})
	m, err := Train(ws, fs, fakePerf, TrainConfig{K: 4, PairSamples: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m, fs
}

func TestObserveRequiresClone(t *testing.T) {
	m, fs := trainedZooModel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Observe on the shared trained model did not panic")
		}
	}()
	m.Observe(fs[0])
}

func TestCloneForOnlineIsolatesCentroids(t *testing.T) {
	m, fs := trainedZooModel(t)
	clone := m.CloneForOnline()
	// Record the original's predictions, then push the clone hard toward one
	// observation; the original must keep answering identically.
	before := make([]int, len(fs))
	for i, f := range fs {
		before[i] = m.PredictCluster(f)
	}
	for i := 0; i < 50; i++ {
		clone.Observe(fs[0])
	}
	for i, f := range fs {
		if got := m.PredictCluster(f); got != before[i] {
			t.Fatalf("original model drifted: instance %d moved cluster %d -> %d", i, before[i], got)
		}
	}
	drift, n := clone.OnlineDrift()
	if n != 50 {
		t.Fatalf("observation count %d, want 50", n)
	}
	if drift <= 0 {
		t.Fatal("no drift accumulated on the clone")
	}
	if d0, n0 := m.OnlineDrift(); d0 != 0 || n0 != 0 {
		t.Fatalf("original accumulated online state: drift %v obs %d", d0, n0)
	}
}

func TestObserveLearningRateDecays(t *testing.T) {
	m, fs := trainedZooModel(t)
	clone := m.CloneForOnline()
	// Repeatedly observing the same point converges: each step moves the
	// centroid strictly less than the last (lr = 1/(count+1) shrinks and the
	// distance shrinks too).
	_, prev := clone.Observe(fs[0])
	for i := 0; i < 10; i++ {
		_, moved := clone.Observe(fs[0])
		if moved >= prev && prev > 0 {
			t.Fatalf("step %d: movement %v did not shrink from %v", i, moved, prev)
		}
		prev = moved
	}
}

func TestCloneOfCloneCarriesOnlineState(t *testing.T) {
	m, fs := trainedZooModel(t)
	c1 := m.CloneForOnline()
	for _, f := range fs[:3] {
		c1.Observe(f)
	}
	d1, n1 := c1.OnlineDrift()
	c2 := c1.CloneForOnline()
	d2, n2 := c2.OnlineDrift()
	if d1 != d2 || n1 != n2 {
		t.Fatalf("re-clone lost online state: (%v,%d) vs (%v,%d)", d1, n1, d2, n2)
	}
	// And the two streams are independent from here on.
	for _, f := range fs[3:] {
		c2.Observe(f)
	}
	if d, n := c1.OnlineDrift(); d != d1 || n != n1 {
		t.Fatalf("observing the re-clone mutated its parent: (%v,%d)", d, n)
	}
}

func TestOnlineUpdatesAreDeterministic(t *testing.T) {
	m, fs := trainedZooModel(t)
	run := func() ([]int, []float64) {
		c := m.CloneForOnline()
		var cl []int
		var mv []float64
		for _, f := range fs {
			a, b := c.Observe(f)
			cl, mv = append(cl, a), append(mv, b)
		}
		return cl, mv
	}
	c1, m1 := run()
	c2, m2 := run()
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(m1, m2) {
		t.Fatal("online update stream is not bit-identical across reruns")
	}
}

func TestWithThresholdClones(t *testing.T) {
	m, feats := trainedZooModel(t)
	orig := m.Threshold()
	hi := m.WithThreshold(orig * 10)
	lo := m.WithThreshold(1e-9)
	if m.Threshold() != orig {
		t.Fatalf("receiver mutated: threshold %v, want %v", m.Threshold(), orig)
	}
	if hi.Threshold() != orig*10 || lo.Threshold() != 1e-9 {
		t.Fatalf("thresholds not applied: hi=%v lo=%v", hi.Threshold(), lo.Threshold())
	}
	// The gates must read the new cutoff: at an absurdly high threshold no
	// pair collocates; at a near-zero threshold every pair does.
	for i := range feats {
		for j := i + 1; j < len(feats); j++ {
			if hi.ShouldCollocate(feats[i], feats[j]) {
				t.Fatalf("pair %d+%d collocates above a 10x threshold", i, j)
			}
			if !lo.ShouldCollocate(feats[i], feats[j]) {
				t.Fatalf("pair %d+%d rejected at a near-zero threshold", i, j)
			}
		}
	}
	if m.WithThreshold(0) != m || m.WithThreshold(orig) != m {
		t.Fatal("identity cases should return the receiver")
	}
}
