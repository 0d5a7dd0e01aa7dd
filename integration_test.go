package v10

// Integration and stress tests exercising the whole stack end to end:
// long mixed simulations with invariant checks, cross-scheme consistency,
// and the full advisor → placement → cluster pipeline.

import (
	"math"
	"testing"
)

// TestLongMixedRunInvariants runs a long six-tenant simulation on a scaled
// core and checks global invariants that any correct schedule must satisfy.
func TestLongMixedRunInvariants(t *testing.T) {
	cfg := DefaultConfig().WithFUs(2)
	names := []string{"BERT", "DLRM", "NCF", "ResNet", "MNIST", "RetinaNet"}
	var ws []*Workload
	for i, n := range names {
		w, err := NewWorkload(n, 32, uint64(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	res, err := Collocate(ws, SchemeV10Full, Options{Config: cfg, Requests: 6})
	if err != nil {
		t.Fatal(err)
	}

	total := float64(res.TotalCycles)
	if total <= 0 {
		t.Fatal("no time simulated")
	}
	// FU capacity: busy unit-cycles can never exceed capacity.
	if res.SAUtil() > 1+1e-9 || res.VUUtil() > 1+1e-9 {
		t.Fatalf("utilization exceeds capacity: SA=%v VU=%v", res.SAUtil(), res.VUUtil())
	}
	// Wall-clock partition: overlap categories plus idle account for all time.
	both, saOnly, vuOnly := res.OverlapBreakdown()
	if both+saOnly+vuOnly > 1+1e-9 {
		t.Fatalf("overlap fractions exceed 1: %v", both+saOnly+vuOnly)
	}
	for _, w := range res.Workloads {
		if w.Requests < 6 {
			t.Fatalf("%s finished only %d requests", w.Name, w.Requests)
		}
		if len(w.LatencyCycles) != w.Requests {
			t.Fatalf("%s latency samples (%d) != requests (%d)",
				w.Name, len(w.LatencyCycles), w.Requests)
		}
		for _, lat := range w.LatencyCycles {
			if lat <= 0 || lat > total {
				t.Fatalf("%s latency %v outside (0, total]", w.Name, lat)
			}
		}
		// A workload's busy time can't exceed the whole run on every FU.
		if w.ActiveCycles > res.TotalCycles*int64(cfg.NumSA+cfg.NumVU) {
			t.Fatalf("%s active cycles exceed capacity", w.Name)
		}
		if w.ProgressOpCycles <= 0 || w.FLOPs <= 0 || w.HBMBytes <= 0 {
			t.Fatalf("%s missing accounting: %+v", w.Name, w)
		}
	}
	// HBM: traffic can't exceed the interface's capacity over the run.
	if res.HBMUtil() > 1+1e-6 {
		t.Fatalf("HBM utilization %v above capacity", res.HBMUtil())
	}
}

// TestSchemeConsistency checks cross-scheme invariants on one pair: Fair
// and Base differ only in dispatch order (no preemptions), Full preempts,
// PMT never overlaps.
func TestSchemeConsistency(t *testing.T) {
	cfg := DefaultConfig()
	mk := func() []*Workload {
		a, err := NewWorkload("BERT", 32, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewWorkload("DLRM", 32, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return []*Workload{a, b}
	}
	results, rates, err := CompareSchemes(mk(), Options{Requests: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"PMT", "V10-Base", "V10-Fair"} {
		for _, w := range results[name].Workloads {
			if name != "PMT" && w.Preemptions != 0 {
				t.Fatalf("%s must not preempt operators", name)
			}
		}
	}
	pmtBoth, _, _ := results["PMT"].OverlapBreakdown()
	if pmtBoth > 0.02 {
		t.Fatalf("PMT overlap = %v", pmtBoth)
	}
	fullBoth, _, _ := results["V10-Full"].OverlapBreakdown()
	if fullBoth <= pmtBoth {
		t.Fatal("V10-Full must overlap more than PMT")
	}
	// STP sanity: every scheme within (0, 2] for a pair.
	for name, r := range results {
		stp := r.STP(rates)
		if stp <= 0 || stp > 2.0001 {
			t.Fatalf("%s STP = %v outside (0, 2]", name, stp)
		}
	}
}

// TestAdvisorClusterPipeline drives §3.4+§3.5 end to end: train, group with
// a per-core cap, simulate the whole cluster, and verify the advisor's
// placement beats blind pairing.
func TestAdvisorClusterPipeline(t *testing.T) {
	cfg := DefaultConfig()
	names := []string{"BERT", "Transformer", "DLRM", "NCF", "ResNet", "MNIST"}
	var ws []*Workload
	for i, n := range names {
		w, err := NewWorkload(n, 32, uint64(i+10), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	adv, err := TrainAdvisor(ws, AdvisorOptions{Clusters: 3, ProfileRequests: 2, PairSamples: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	planned := adv.PlanPlacement(ws)
	if err := planned.Validate(len(ws)); err != nil {
		t.Fatal(err)
	}
	plan, err := SimulateCluster(ws, planned, SchemeV10Full, Options{Requests: 4})
	if err != nil {
		t.Fatal(err)
	}
	blind, err := SimulateCluster(ws, NaivePlacement(len(ws)), SchemeV10Full, Options{Requests: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The advisor should never be materially worse than blind pairing.
	if plan.TotalSTP < blind.TotalSTP*0.95 {
		t.Fatalf("advisor STP %v well below blind %v", plan.TotalSTP, blind.TotalSTP)
	}
	if plan.WorstTenant <= 0 {
		t.Fatal("a tenant starved under the advisor plan")
	}
}

// TestDeterminismAcrossStack re-runs an identical scenario end to end and
// requires bit-identical aggregates.
func TestDeterminismAcrossStack(t *testing.T) {
	run := func() (float64, float64) {
		cfg := DefaultConfig()
		a, err := NewWorkload("RNRS", 32, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewWorkload("SMask", 8, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Collocate([]*Workload{a, b}, SchemeV10Full, Options{Requests: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.AggregateUtil(), res.Workloads[0].AvgLatency()
	}
	u1, l1 := run()
	u2, l2 := run()
	if u1 != u2 || l1 != l2 {
		t.Fatalf("stack nondeterministic: (%v,%v) vs (%v,%v)", u1, l1, u2, l2)
	}
	if math.IsNaN(u1) || u1 <= 0 {
		t.Fatalf("degenerate utilization %v", u1)
	}
}
