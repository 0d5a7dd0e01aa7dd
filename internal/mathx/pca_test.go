package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

// Data spread mostly along the (1,1) direction.
func correlatedData(n int, rng *RNG) *Matrix {
	m := NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		t := rng.Uniform(-10, 10)
		m.Set(i, 0, t+rng.Norm()*0.1)
		m.Set(i, 1, t+rng.Norm()*0.1)
	}
	return m
}

func TestPCAFindsDominantDirection(t *testing.T) {
	rng := NewRNG(1)
	data := correlatedData(200, rng)
	p := FitPCA(data, 1)
	// After standardization the dominant direction of perfectly correlated
	// features is (±1/√2, ±1/√2).
	a, b := p.Components.At(0, 0), p.Components.At(1, 0)
	if !almostEq(math.Abs(a), math.Abs(b), 1e-3) {
		t.Fatalf("dominant component not balanced: (%v, %v)", a, b)
	}
	if p.Explained[0] < 0.95 {
		t.Fatalf("explained variance = %v, want > 0.95", p.Explained[0])
	}
}

func TestPCATransformCentersData(t *testing.T) {
	rng := NewRNG(2)
	data := correlatedData(100, rng)
	p := FitPCA(data, 2)
	proj := p.TransformAll(data)
	for c := 0; c < 2; c++ {
		sum := 0.0
		for i := 0; i < proj.Rows; i++ {
			sum += proj.At(i, c)
		}
		if math.Abs(sum/float64(proj.Rows)) > 1e-9 {
			t.Fatalf("projected column %d not centered: mean %v", c, sum/float64(proj.Rows))
		}
	}
}

func TestPCAKClamped(t *testing.T) {
	data := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 7}})
	p := FitPCA(data, 10)
	if p.Components.Cols != 2 {
		t.Fatalf("k should clamp to feature count, got %d", p.Components.Cols)
	}
	p = FitPCA(data, 0)
	if p.Components.Cols != 1 {
		t.Fatalf("k should clamp up to 1, got %d", p.Components.Cols)
	}
}

func TestPCAConstantFeatureSafe(t *testing.T) {
	data := MatrixFromRows([][]float64{{1, 5}, {2, 5}, {3, 5}})
	p := FitPCA(data, 2)
	out := p.TransformInto(nil, []float64{2, 5})
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("constant feature produced non-finite projection: %v", out)
		}
	}
}

func TestPCATransformDimMismatchPanics(t *testing.T) {
	p := FitPCA(MatrixFromRows([][]float64{{1, 2}, {3, 4}}), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	p.TransformInto(nil, []float64{1, 2, 3})
}

// Property: explained variance fractions are in [0,1], non-increasing, and
// sum to at most 1.
func TestPCAExplainedVarianceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows, cols := 5+rng.Intn(20), 2+rng.Intn(4)
		data := NewMatrix(rows, cols)
		for i := range data.Data {
			data.Data[i] = rng.Uniform(-100, 100)
		}
		p := FitPCA(data, cols)
		total := 0.0
		prev := math.Inf(1)
		for _, e := range p.Explained {
			if e < -1e-9 || e > 1+1e-9 || e > prev+1e-9 {
				return false
			}
			prev = e
			total += e
		}
		return total <= 1+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
