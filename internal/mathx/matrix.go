package mathx

import "fmt"

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mathx: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices. All rows must have equal
// length. The data is copied.
func MatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mathx: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// ColMeans returns the mean of each column.
func (m *Matrix) ColMeans() []float64 {
	means := make([]float64, m.Cols)
	if m.Rows == 0 {
		return means
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			means[j] += m.At(i, j)
		}
	}
	for j := range means {
		means[j] /= float64(m.Rows)
	}
	return means
}

// ColStdDevs returns the population standard deviation of each column.
func (m *Matrix) ColStdDevs() []float64 {
	means := m.ColMeans()
	sds := make([]float64, m.Cols)
	if m.Rows < 2 {
		return sds
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			d := m.At(i, j) - means[j]
			sds[j] += d * d
		}
	}
	for j := range sds {
		sds[j] = sqrt(sds[j] / float64(m.Rows))
	}
	return sds
}

// Covariance returns the Cols×Cols covariance matrix of the rows of m
// (population covariance, rows are observations).
func (m *Matrix) Covariance() *Matrix {
	means := m.ColMeans()
	cov := NewMatrix(m.Cols, m.Cols)
	if m.Rows < 2 {
		return cov
	}
	for i := 0; i < m.Rows; i++ {
		for a := 0; a < m.Cols; a++ {
			da := m.At(i, a) - means[a]
			for b := a; b < m.Cols; b++ {
				cov.Data[a*m.Cols+b] += da * (m.At(i, b) - means[b])
			}
		}
	}
	n := float64(m.Rows)
	for a := 0; a < m.Cols; a++ {
		for b := a; b < m.Cols; b++ {
			v := cov.At(a, b) / n
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}
