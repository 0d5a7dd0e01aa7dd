package sched

import "fmt"

// ArrivalError reports an invalid open-loop arrival configuration: a
// malformed explicit schedule, a schedule-count/workload-count mismatch, or
// setting both ArrivalCycles and ArrivalRateHz (documented as mutually
// exclusive). Callers assembling schedules programmatically (the fleet
// dispatcher, the workload engine plumbing) match it with errors.As to
// distinguish a bad traffic description from other configuration errors.
type ArrivalError struct {
	// Workload is the offending schedule's index in ArrivalCycles, or -1 for
	// an option-level conflict (mutual exclusion, schedule-count mismatch).
	Workload int
	// Index is the offending arrival's position within the schedule, or -1.
	Index int
	// Value is the offending arrival cycle when Index >= 0.
	Value int64
	// Reason is the human-readable diagnosis.
	Reason string
}

func (e *ArrivalError) Error() string {
	switch {
	case e.Workload < 0:
		return "sched: invalid arrivals: " + e.Reason
	case e.Index < 0:
		return fmt.Sprintf("sched: invalid arrivals for workload %d: %s", e.Workload, e.Reason)
	}
	return fmt.Sprintf("sched: invalid arrival ArrivalCycles[%d][%d] = %d: %s",
		e.Workload, e.Index, e.Value, e.Reason)
}

// ValidateArrivals returns an *ArrivalError naming the first arrival in
// schedules that is negative or earlier than its predecessor, or nil when
// every schedule is nondecreasing from cycle 0.
func ValidateArrivals(schedules [][]int64) error {
	for i, schedule := range schedules {
		prev := int64(0)
		for k, at := range schedule {
			if at < prev {
				reason := "decreases"
				if at < 0 {
					reason = "is negative"
				}
				return &ArrivalError{Workload: i, Index: k, Value: at, Reason: reason}
			}
			prev = at
		}
	}
	return nil
}
