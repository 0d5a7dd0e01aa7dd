package tune

import "v10/internal/fleet"

// Apply maps the knob vector onto a fleet configuration. Layer by layer:
//
//   - sched:    QuantumCycles → Config.TimeSlice, PreemptMargin,
//     PriorityExponent.
//   - fleet:    QueueLimit, MigrationBackoffCycles, and — only when the run
//     carries a trained collocation model — CollocationThreshold.
//   - ctlplane: CooldownIntervals and DrainOccupancy, only when the run is
//     elastic; the elastic config is cloned, never mutated in place, and the
//     cooldown is re-expressed in intervals so one policy ports across
//     scenarios with different horizons.
//   - admission: SlowdownLimit, only under predictive admission.
//
// Knobs that have no surface in the given options (no model, no autoscaler,
// queue-bound admission) are inert, so one tuned policy applies uniformly
// across the whole scenario corpus. Apply does not validate — call Validate
// first (the policy loaders already do).
func (k Knobs) Apply(o fleet.Options) fleet.Options {
	o.Config.TimeSlice = k.QuantumCycles
	o.PreemptMargin = k.PreemptMargin
	o.PriorityExponent = k.PriorityExponent
	o.QueueLimit = k.QueueLimit
	o.MigrationBackoffCycles = k.MigrationBackoffCycles
	if o.Model != nil {
		o.CollocationThreshold = k.CollocationThreshold
	}
	if o.Admission == fleet.AdmitPredictive {
		o.SlowdownLimit = k.SlowdownLimit
	}
	if o.Elastic != nil {
		cfg := *o.Elastic
		cfg.CooldownCycles = 0 // mutually exclusive with the interval form
		cfg.CooldownIntervals = k.CooldownIntervals
		cfg.DrainOccupancy = k.DrainOccupancy
		o.Elastic = &cfg
	}
	return o
}
