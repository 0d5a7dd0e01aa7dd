package npu

// WaterFillInto allocates bandwidth capacity to flows with the given demands
// using max-min fairness, writing one allocation per demand into alloc
// (len(alloc) must equal len(demands)), so hot paths re-solve allocations
// without allocating. Every flow receives min(demand, fair share), and
// capacity left by under-demanding flows is redistributed to the rest.
// Demands must be non-negative; the sum of allocations never exceeds
// capacity, and no flow ever receives more than its demand.
//
// This is the fluid model the simulator uses for HBM: concurrently executing
// operators stream their traffic at their natural rate when bandwidth is
// plentiful and are throttled proportionally when the collocated workloads
// oversubscribe the interface (the §5.6 DLRM+RsNt effect).
func WaterFillInto(alloc, demands []float64, capacity float64) {
	for i := range alloc {
		alloc[i] = 0
	}
	if capacity <= 0 {
		return
	}
	remainingCap := capacity
	active := 0
	total := 0.0
	for _, d := range demands {
		if d > 0 {
			active++
			total += d
		}
	}
	// No contention: every flow ends with exactly its demand (the round loop
	// below provably converges there), so skip the rounds.
	if total <= capacity {
		for i, d := range demands {
			if d > 0 {
				alloc[i] = d
			}
		}
		return
	}
	// A flow leaves the active set exactly when alloc[i] == demands[i]: full
	// satisfaction assigns the demand verbatim, and the even-split fallback
	// below always leaves alloc strictly under demand before breaking.
	for active > 0 {
		share := remainingCap / float64(active)
		progressed := false
		for i, d := range demands {
			if d <= 0 || alloc[i] == d {
				continue
			}
			if d-alloc[i] <= share {
				// Flow fully satisfied at this level.
				remainingCap -= d - alloc[i]
				alloc[i] = d
				progressed = true
				active--
			}
		}
		if !progressed {
			// Every remaining flow wants more than the share: split evenly.
			for i, d := range demands {
				if d <= 0 || alloc[i] == d {
					continue
				}
				alloc[i] += share
			}
			break
		}
		if remainingCap <= 0 {
			break
		}
	}
}
