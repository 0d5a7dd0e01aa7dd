package simcheck

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestGenWorkloadScenarioShape(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		sc := GenWorkloadScenario(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: invalid scenario: %v", seed, err)
		}
		if sc.ArrivalCycles == nil || len(sc.ArrivalCycles) != len(sc.Workloads) {
			t.Fatalf("seed %d: malformed schedules", seed)
		}
		if sc.ArrivalRateHz != 0 {
			t.Fatalf("seed %d: rate and schedules both set", seed)
		}
		for _, sch := range sc.Schemes {
			if sch == SchemePMT {
				t.Fatalf("seed %d: PMT scheme with explicit schedules", seed)
			}
		}
		total := 0
		for _, arr := range sc.ArrivalCycles {
			total += len(arr)
		}
		if total == 0 {
			t.Fatalf("seed %d: every schedule empty", seed)
		}
	}
}

func TestGenWorkloadScenarioDeterministic(t *testing.T) {
	a, b := GenWorkloadScenario(17), GenWorkloadScenario(17)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenWorkloadScenario is nondeterministic")
	}
}

func TestWorkloadScenarioRoundTripsJSON(t *testing.T) {
	sc := GenWorkloadScenario(3)
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.ArrivalCycles, back.ArrivalCycles) {
		t.Fatal("ArrivalCycles did not round-trip")
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleScenarioValidation(t *testing.T) {
	base := GenWorkloadScenario(1)
	mutate := func(f func(*Scenario)) *Scenario {
		var c Scenario
		data, _ := json.Marshal(base)
		json.Unmarshal(data, &c)
		f(&c)
		return &c
	}
	if err := mutate(func(s *Scenario) { s.ArrivalRateHz = 10 }).Validate(); err == nil {
		t.Error("rate+schedules accepted")
	}
	if err := mutate(func(s *Scenario) { s.ArrivalCycles = s.ArrivalCycles[:len(s.ArrivalCycles)-1] }).Validate(); err == nil && len(base.ArrivalCycles) > 0 {
		t.Error("schedule-count mismatch accepted")
	}
	if err := mutate(func(s *Scenario) { s.ArrivalCycles[0] = []int64{100, 50} }).Validate(); err == nil {
		t.Error("decreasing schedule accepted")
	}
	if err := mutate(func(s *Scenario) { s.Schemes = []string{SchemePMT} }).Validate(); err != nil {
		t.Errorf("PMT with schedules rejected: %v", err)
	}
}
