package tune

import (
	"testing"

	"v10/internal/collocate"
	"v10/internal/ctlplane"
	"v10/internal/fleet"
	"v10/internal/npu"
)

func TestApplyLayerGating(t *testing.T) {
	k := Tuned()
	base := fleet.Options{Config: npu.DefaultConfig(), Cores: 2}

	// Bare options: sched + fleet knobs land, conditional layers stay inert.
	o := k.Apply(base)
	if o.Config.TimeSlice != k.QuantumCycles || o.PreemptMargin != k.PreemptMargin ||
		o.PriorityExponent != k.PriorityExponent || o.QueueLimit != k.QueueLimit ||
		o.MigrationBackoffCycles != k.MigrationBackoffCycles {
		t.Fatalf("unconditional knobs not applied: %+v", o)
	}
	if o.CollocationThreshold != base.CollocationThreshold {
		t.Fatalf("collocation threshold %v applied without a model", o.CollocationThreshold)
	}
	if o.SlowdownLimit != base.SlowdownLimit {
		t.Fatalf("slowdown limit %v applied without predictive admission", o.SlowdownLimit)
	}
	if o.Elastic != nil {
		t.Fatal("elastic config materialized from nothing")
	}

	// With a model, the advisor threshold follows the knob.
	withModel := base
	withModel.Model = &collocate.Model{}
	if got := k.Apply(withModel).CollocationThreshold; got != k.CollocationThreshold {
		t.Fatalf("collocation threshold = %v, want %v", got, k.CollocationThreshold)
	}

	// Under predictive admission, the slowdown ceiling follows the knob.
	withAdm := base
	withAdm.Admission = fleet.AdmitPredictive
	if got := k.Apply(withAdm).SlowdownLimit; got != k.SlowdownLimit {
		t.Fatalf("slowdown limit = %v, want %v", got, k.SlowdownLimit)
	}

	// The elastic config is cloned, re-expressed in intervals, never mutated.
	orig := &ctlplane.Config{MinCores: 2, CooldownCycles: 777, DrainOccupancy: 0.1}
	withEl := base
	withEl.Elastic = orig
	got := k.Apply(withEl)
	if got.Elastic == orig {
		t.Fatal("elastic config mutated in place")
	}
	if orig.CooldownCycles != 777 || orig.DrainOccupancy != 0.1 {
		t.Fatalf("caller's elastic config was mutated: %+v", orig)
	}
	if got.Elastic.CooldownCycles != 0 || got.Elastic.CooldownIntervals != k.CooldownIntervals ||
		got.Elastic.DrainOccupancy != k.DrainOccupancy || got.Elastic.MinCores != 2 {
		t.Fatalf("elastic knobs misapplied: %+v", got.Elastic)
	}
}
