package mathx

// Integer min/max helpers shared across the simulator packages. Several
// packages used to carry private copies (trace, models, experiments); they
// are deduplicated here so edge-case behaviour (negative values, equal
// arguments, extreme int64 values) is tested in exactly one place.

// MinInt64 returns the smaller of a and b.
func MinInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// MaxInt64 returns the larger of a and b.
func MaxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// MaxInt returns the larger of a and b.
func MaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
