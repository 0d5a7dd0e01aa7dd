package mathx

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64MeanRoughlyHalf(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalMeanMatchesTarget(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.LogNormalMean(100, 0.3)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Fatalf("lognormal mean = %v, want ~100", mean)
	}
}

func TestLogNormalMeanDegenerateCases(t *testing.T) {
	r := NewRNG(1)
	if got := r.LogNormalMean(50, 0); got != 50 {
		t.Errorf("cv=0 should return mean exactly, got %v", got)
	}
	if got := r.LogNormalMean(0, 0.5); got != 0 {
		t.Errorf("mean=0 should return 0, got %v", got)
	}
	if got := r.LogNormalMean(-5, 0.5); got != 0 {
		t.Errorf("negative mean should return 0, got %v", got)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(21)
	child := r.Split()
	if r.Uint64() == child.Uint64() {
		t.Fatal("split stream mirrors parent")
	}
}
