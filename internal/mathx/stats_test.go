package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -2, 8, 0}
	if Min(xs) != -2 || Max(xs) != 8 || Sum(xs) != 9 {
		t.Errorf("Min/Max/Sum wrong: %v %v %v", Min(xs), Max(xs), Sum(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {95, 9.55},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); !almostEq(got, 4, 1e-9) {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if got := GeoMean([]float64{-1, 0}); got != 0 {
		t.Errorf("GeoMean of non-positives = %v, want 0", got)
	}
	if got := GeoMean([]float64{2, -1, 8}); !almostEq(got, 4, 1e-9) {
		t.Errorf("GeoMean skipping non-positive = %v, want 4", got)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(6, 3, -1); got != 2 {
		t.Errorf("Ratio(6,3) = %v, want 2", got)
	}
	if got := Ratio(6, 0, 0); got != 0 {
		t.Errorf("Ratio with zero denominator = %v, want fallback 0", got)
	}
	if got := Ratio(0, 0, 1); got != 1 {
		t.Errorf("Ratio(0,0) = %v, want fallback 1", got)
	}
}

// The summary/report helpers must never emit NaN for empty or zero-valued
// inputs — a single NaN cell poisons every aggregate drawn from a table.
func TestNoNaNOnDegenerateInputs(t *testing.T) {
	checks := map[string]float64{
		"Mean(nil)":        Mean(nil),
		"Percentile(nil)":  Percentile(nil, 95),
		"GeoMean(nil)":     GeoMean(nil),
		"GeoMean(zeros)":   GeoMean([]float64{0, 0}),
		"GeoMean(NaN)":     GeoMean([]float64{math.NaN()}),
		"JainFairness(0s)": JainFairness([]float64{0, 0}),
		"Ratio(1,0,0)":     Ratio(1, 0, 0),
	}
	for name, v := range checks {
		if math.IsNaN(v) {
			t.Errorf("%s = NaN", name)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestJainFairness(t *testing.T) {
	if got := JainFairness([]float64{1, 1, 1, 1}); !almostEq(got, 1, 1e-12) {
		t.Errorf("equal shares fairness = %v, want 1", got)
	}
	if got := JainFairness([]float64{1, 0, 0, 0}); !almostEq(got, 0.25, 1e-12) {
		t.Errorf("single-user fairness = %v, want 0.25", got)
	}
	if got := JainFairness(nil); got != 1 {
		t.Errorf("empty fairness = %v, want 1", got)
	}
}

// Property: mean is always within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= Min(clean)-1e-6 && m <= Max(clean)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 101)
		p2 = math.Mod(math.Abs(p2), 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		a, b := Percentile(xs, p1), Percentile(xs, p2)
		return a <= b+1e-9 && a >= Min(xs)-1e-9 && b <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Jain fairness index lies in [1/n, 1].
func TestJainFairnessRangeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e50 {
				xs = append(xs, math.Abs(x))
			}
		}
		if len(xs) == 0 {
			return true
		}
		j := JainFairness(xs)
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
