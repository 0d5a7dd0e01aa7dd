package mathx

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice and
// does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile over an already ascending-sorted slice: no
// copy, no sort. Callers computing several quantiles of the same sample sort
// once and read each quantile from the sorted buffer.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Ratio returns num/den, or fallback when den is zero — the guard for
// report paths where a degenerate run (no requests, zero cycles) must render
// as a sentinel instead of poisoning a table with NaN or Inf.
func Ratio(num, den, fallback float64) float64 {
	if den == 0 {
		return fallback
	}
	return num / den
}

// GeoMean returns the geometric mean of xs. Non-positive (and NaN) entries
// are skipped; it returns the documented sentinel 0 when no positive entries
// exist, never NaN.
func GeoMean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// JainFairness returns Jain's fairness index of xs: (Σx)² / (n·Σx²).
// It is 1 when all entries are equal and 1/n in the most unfair case.
// It returns 1 for empty or all-zero input.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum, sq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		// float64(...) rounds the product, so no architecture fuses a multiply-add.
		sq += float64(x * x)
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
