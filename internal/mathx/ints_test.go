package mathx

import (
	"math"
	"testing"
)

func TestMinMaxInt64(t *testing.T) {
	cases := []struct {
		name     string
		a, b     int64
		min, max int64
	}{
		{"positive", 3, 7, 3, 7},
		{"reversed", 7, 3, 3, 7},
		{"equal", 5, 5, 5, 5},
		{"negative", -4, -9, -9, -4},
		{"mixed-sign", -1, 1, -1, 1},
		{"zero", 0, -0, 0, 0},
		{"max-int64", math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 1, math.MaxInt64},
		{"min-int64", math.MinInt64, 0, math.MinInt64, 0},
		{"extremes", math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := MinInt64(tc.a, tc.b); got != tc.min {
				t.Errorf("MinInt64(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.min)
			}
			if got := MaxInt64(tc.a, tc.b); got != tc.max {
				t.Errorf("MaxInt64(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.max)
			}
		})
	}
}

func TestMinMaxInt(t *testing.T) {
	cases := []struct {
		name string
		a, b int
		max  int
	}{
		{"positive", 2, 9, 9},
		{"reversed", 9, 2, 9},
		{"equal", -3, -3, -3},
		{"negative", -10, -2, -2},
		{"mixed-sign", 4, -4, 4},
		{"max-int", math.MaxInt, 1, math.MaxInt},
		{"min-int", math.MinInt, -1, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := MaxInt(tc.a, tc.b); got != tc.max {
				t.Errorf("MaxInt(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.max)
			}
		})
	}
}
