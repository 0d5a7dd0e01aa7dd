package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("At/Set broken")
	}
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) == 99 {
		t.Fatal("Row must return a copy")
	}
}

func TestMatrixFromRowsAndClone(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatrixFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	MatrixFromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %+v", tr)
	}
}

func TestColMeansAndStdDevs(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 10}, {3, 10}})
	means := m.ColMeans()
	if means[0] != 2 || means[1] != 10 {
		t.Fatalf("ColMeans = %v", means)
	}
	sds := m.ColStdDevs()
	if !almostEq(sds[0], 1, 1e-12) || sds[1] != 0 {
		t.Fatalf("ColStdDevs = %v", sds)
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Perfectly correlated columns: cov = var.
	m := MatrixFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	cov := m.Covariance()
	varX := 2.0 / 3.0
	if !almostEq(cov.At(0, 0), varX, 1e-12) {
		t.Errorf("var(x) = %v, want %v", cov.At(0, 0), varX)
	}
	if !almostEq(cov.At(0, 1), 2*varX, 1e-12) || !almostEq(cov.At(1, 0), 2*varX, 1e-12) {
		t.Errorf("cov(x,y) = %v, want %v", cov.At(0, 1), 2*varX)
	}
	if !almostEq(cov.At(1, 1), 4*varX, 1e-12) {
		t.Errorf("var(y) = %v, want %v", cov.At(1, 1), 4*varX)
	}
}

// Property: covariance matrices are symmetric with non-negative diagonals.
func TestCovarianceSymmetricProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows, cols := 3+rng.Intn(10), 2+rng.Intn(5)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.Uniform(-10, 10)
		}
		cov := m.Covariance()
		for a := 0; a < cols; a++ {
			if cov.At(a, a) < -1e-9 {
				return false
			}
			for b := 0; b < cols; b++ {
				if math.Abs(cov.At(a, b)-cov.At(b, a)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: (A^T)^T == A.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m := NewMatrix(1+rng.Intn(6), 1+rng.Intn(6))
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		tt := m.T().T()
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
