package mathx

// PCA is a fitted principal component analysis: a linear projection onto the
// leading eigenvectors of the (standardized) feature covariance matrix.
// The V10 collocation mechanism (§3.4 of the paper) uses PCA to compress
// workload resource-utilization features before K-Means clustering.
type PCA struct {
	Means      []float64 // per-feature mean used for centering
	Scales     []float64 // per-feature std-dev used for standardization (1 when constant)
	Components *Matrix   // Features×K projection matrix (columns are components)
	Explained  []float64 // fraction of total variance captured by each kept component
}

// FitPCA fits a PCA with k components on data (rows are observations,
// columns are features). Features are standardized (zero mean, unit variance)
// before the covariance eigendecomposition so that features on different
// scales — utilization fractions vs. operator lengths in cycles — contribute
// comparably. k is clamped to the number of features.
func FitPCA(data *Matrix, k int) *PCA {
	if k < 1 {
		k = 1
	}
	if k > data.Cols {
		k = data.Cols
	}
	means := data.ColMeans()
	scales := data.ColStdDevs()
	for j, s := range scales {
		if s == 0 {
			scales[j] = 1
		}
	}
	std := NewMatrix(data.Rows, data.Cols)
	for i := 0; i < data.Rows; i++ {
		for j := 0; j < data.Cols; j++ {
			std.Set(i, j, (data.At(i, j)-means[j])/scales[j])
		}
	}
	values, vectors := EigenSym(std.Covariance())

	total := 0.0
	for _, v := range values {
		if v > 0 {
			total += v
		}
	}
	comp := NewMatrix(data.Cols, k)
	explained := make([]float64, k)
	for c := 0; c < k; c++ {
		for r := 0; r < data.Cols; r++ {
			comp.Set(r, c, vectors.At(r, c))
		}
		if total > 0 && values[c] > 0 {
			explained[c] = values[c] / total
		}
	}
	return &PCA{Means: means, Scales: scales, Components: comp, Explained: explained}
}

// TransformInto projects a single observation x onto the fitted components,
// writing them into dst's storage when it has the capacity (a caller's stack
// buffer keeps the projection allocation-free) and returning the filled
// slice.
func (p *PCA) TransformInto(dst, x []float64) []float64 {
	if len(x) != len(p.Means) {
		panic("mathx: PCA.TransformInto feature-count mismatch")
	}
	k := p.Components.Cols
	if cap(dst) < k {
		dst = make([]float64, k)
	}
	out := dst[:k]
	for c := 0; c < k; c++ {
		s := 0.0
		for j := range x {
			s += (x[j] - p.Means[j]) / p.Scales[j] * p.Components.At(j, c)
		}
		out[c] = s
	}
	return out
}

// TransformAll projects every row of data.
func (p *PCA) TransformAll(data *Matrix) *Matrix {
	out := NewMatrix(data.Rows, p.Components.Cols)
	for i := 0; i < data.Rows; i++ {
		p.TransformInto(out.Data[i*out.Cols:(i+1)*out.Cols], data.Row(i))
	}
	return out
}
