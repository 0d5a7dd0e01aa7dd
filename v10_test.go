package v10

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestModelNames(t *testing.T) {
	names := ModelNames()
	if len(names) != 11 {
		t.Fatalf("model count = %d, want 11", len(names))
	}
}

func TestNewWorkloadValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewWorkload("BERT", 32, 1, cfg); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	if _, err := NewWorkload("RNRS", 32, 1, cfg); err != nil {
		t.Fatalf("abbreviation rejected: %v", err)
	}
	if _, err := NewWorkload("NoSuchNet", 32, 1, cfg); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := NewWorkload("BERT", 0, 1, cfg); err == nil {
		t.Fatal("zero batch accepted")
	}
	_, err := NewWorkload("Mask-RCNN", 64, 1, cfg)
	if err == nil || !strings.Contains(err.Error(), "HBM") {
		t.Fatalf("OOM batch should fail with a memory error, got %v", err)
	}
}

func TestSchemeString(t *testing.T) {
	cases := map[Scheme]string{
		SchemePMT: "PMT", SchemeV10Base: "V10-Base",
		SchemeV10Fair: "V10-Fair", SchemeV10Full: "V10-Full",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if Scheme(99).String() != "Scheme(99)" {
		t.Error("unknown scheme string wrong")
	}
}

func TestProfileAndCollocateEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	bert, err := NewWorkload("BERT", 32, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ncf, err := NewWorkload("NCF", 32, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}

	single, err := Profile(bert, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if single.Scheme != "Single" || single.Workloads[0].Requests != 3 {
		t.Fatalf("profile result wrong: %+v", single)
	}

	full, err := Collocate([]*Workload{bert, ncf}, SchemeV10Full, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	pmt, err := Collocate([]*Workload{bert, ncf}, SchemePMT, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if full.AggregateUtil() <= pmt.AggregateUtil() {
		t.Fatalf("V10-Full util %v <= PMT %v", full.AggregateUtil(), pmt.AggregateUtil())
	}
}

func TestCollocateUnknownScheme(t *testing.T) {
	cfg := DefaultConfig()
	w, _ := NewWorkload("MNIST", 32, 1, cfg)
	if _, err := Collocate([]*Workload{w}, Scheme(42), Options{}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestCompareSchemes(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := NewWorkload("DLRM", 32, 1, cfg)
	b, _ := NewWorkload("ResNet", 32, 2, cfg)
	results, rates, err := CompareSchemes([]*Workload{a, b}, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || len(rates) != 2 {
		t.Fatalf("results/rates = %d/%d", len(results), len(rates))
	}
	stpPMT := results["PMT"].STP(rates)
	stpFull := results["V10-Full"].STP(rates)
	if stpFull <= stpPMT {
		t.Fatalf("V10-Full STP %v <= PMT %v", stpFull, stpPMT)
	}
}

func TestCustomWorkload(t *testing.T) {
	w := CustomWorkload("mine", func(request int) *Graph {
		return &Graph{Ops: []Op{{ID: 0, Compute: 1000}}}
	})
	res, err := Profile(w, Options{Requests: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads[0].Requests != 2 {
		t.Fatal("custom workload did not run")
	}
}

func TestOptionsOverrides(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := NewWorkload("MNIST", 32, 1, cfg)
	b, _ := NewWorkload("NCF", 32, 2, cfg)
	// A non-default time slice must still work.
	res, err := Collocate([]*Workload{a, b}, SchemeV10Full, Options{Requests: 2, TimeSlice: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles == 0 {
		t.Fatal("no cycles simulated")
	}
}

func TestAdvisorEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	var training []*Workload
	for i, name := range []string{"BERT", "DLRM", "NCF", "ResNet", "Transformer", "MNIST", "EfficientNet", "RetinaNet"} {
		w, err := NewWorkload(name, 32, uint64(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		training = append(training, w)
	}
	adv, err := TrainAdvisor(training, AdvisorOptions{Clusters: 4, ProfileRequests: 2, PairSamples: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Clusters() < 2 {
		t.Fatalf("clusters = %d", adv.Clusters())
	}
	bert := training[0]
	dlrm := training[1]
	tfmr := training[4]
	if adv.PredictGain(bert, dlrm) <= 0 {
		t.Fatal("gain should be positive")
	}
	// Complementary pair should look at least as good as the conflicting one.
	if adv.PredictGain(bert, dlrm) < adv.PredictGain(bert, tfmr)-0.2 {
		t.Fatalf("complementary gain %v much worse than conflicting %v",
			adv.PredictGain(bert, dlrm), adv.PredictGain(bert, tfmr))
	}
	// Cluster assignment must be deterministic.
	if adv.Cluster(bert) != adv.Cluster(bert) {
		t.Fatal("cluster assignment nondeterministic")
	}
}

// TestAdvisorPlanPairsPinned pins the greedy pairing on a fixed model-zoo set
// at three benefit thresholds, ties in predicted gain included.
func TestAdvisorPlanPairsPinned(t *testing.T) {
	cfg := DefaultConfig()
	var ws []*Workload
	for i, name := range []string{"BERT", "DLRM", "NCF", "ResNet", "Transformer",
		"MNIST", "RetinaNet", "EfficientNet", "ResNet-RS", "DLRM"} {
		batch := 32
		if i == 9 {
			batch = 8
		}
		w, err := NewWorkload(name, batch, uint64(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	for _, tc := range []struct {
		threshold float64
		pairs     [][2]int
		alone     []int
	}{
		{0, [][2]int{{1, 9}, {3, 6}, {2, 5}, {0, 7}, {4, 8}}, nil},
		{1.45, [][2]int{{1, 9}, {3, 6}, {2, 5}, {0, 7}}, []int{4, 8}},
		{1.49, [][2]int{{1, 9}, {3, 6}}, []int{0, 2, 4, 5, 7, 8}},
	} {
		adv, err := TrainAdvisor(ws, AdvisorOptions{Clusters: 4, ProfileRequests: 2, PairSamples: 4,
			Seed: 3, Threshold: tc.threshold})
		if err != nil {
			t.Fatal(err)
		}
		pairs, alone := adv.PlanPairs(ws)
		if fmt.Sprint(pairs) != fmt.Sprint(tc.pairs) || fmt.Sprint(alone) != fmt.Sprint(tc.alone) {
			t.Errorf("threshold %v: pairs %v alone %v, want %v and %v",
				tc.threshold, pairs, alone, tc.pairs, tc.alone)
		}
	}
}

func TestAdvisorPlanPairs(t *testing.T) {
	cfg := DefaultConfig()
	var ws []*Workload
	for i, name := range []string{"BERT", "DLRM", "NCF", "ResNet", "Transformer", "MNIST"} {
		w, err := NewWorkload(name, 32, uint64(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	adv, err := TrainAdvisor(ws, AdvisorOptions{Clusters: 3, ProfileRequests: 2, PairSamples: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs, alone := adv.PlanPairs(ws)
	used := map[int]bool{}
	for _, p := range pairs {
		if used[p[0]] || used[p[1]] {
			t.Fatalf("workload reused across pairs: %v", pairs)
		}
		used[p[0]], used[p[1]] = true, true
	}
	for _, i := range alone {
		if used[i] {
			t.Fatalf("alone workload %d also paired", i)
		}
		used[i] = true
	}
	if len(used) != len(ws) {
		t.Fatalf("plan covered %d/%d workloads", len(used), len(ws))
	}
}

func TestSimulateClusterFacade(t *testing.T) {
	cfg := DefaultConfig()
	var ws []*Workload
	for i, name := range []string{"BERT", "NCF", "DLRM", "ResNet"} {
		w, err := NewWorkload(name, 32, uint64(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	res, err := SimulateCluster(ws, NaivePlacement(len(ws)), SchemeV10Full, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoresUsed != 2 || res.TotalSTP <= 1 {
		t.Fatalf("cluster result wrong: %+v", res)
	}
	pmt, err := SimulateCluster(ws, NaivePlacement(len(ws)), SchemePMT, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSTP <= pmt.TotalSTP {
		t.Fatalf("cluster V10 STP %v <= PMT %v", res.TotalSTP, pmt.TotalSTP)
	}
}

func TestTraceRoundTripFacade(t *testing.T) {
	cfg := DefaultConfig()
	w, err := NewWorkload("MNIST", 32, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := RecordTrace(w, 3)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := back.Workload()
	if err != nil {
		t.Fatal(err)
	}
	// Replayed traces must run through the simulator like any workload.
	res, err := Profile(replay, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads[0].Requests != 3 {
		t.Fatal("replayed workload did not serve requests")
	}
}

func TestAdvisorPlanPlacement(t *testing.T) {
	cfg := DefaultConfig()
	var ws []*Workload
	for i, name := range []string{"BERT", "DLRM", "NCF", "Transformer"} {
		w, err := NewWorkload(name, 32, uint64(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	adv, err := TrainAdvisor(ws, AdvisorOptions{Clusters: 3, ProfileRequests: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := adv.PlanPlacement(ws)
	if err := p.Validate(len(ws)); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
}

func TestOpenLoopFacade(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := NewWorkload("MNIST", 32, 1, cfg)
	b, _ := NewWorkload("DLRM", 32, 2, cfg)
	res, err := Collocate([]*Workload{a, b}, SchemeV10Full,
		Options{Requests: 3, ArrivalRateHz: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads[0].Requests < 3 {
		t.Fatal("open-loop run did not complete requests")
	}
	if _, err := Collocate([]*Workload{a, b}, SchemePMT,
		Options{Requests: 3, SoftwareScheduler: true}); err == nil {
		t.Fatal("PMT should reject the software-scheduler option")
	}
}

func TestFairnessFacade(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := NewWorkload("BERT", 32, 1, cfg)
	b, _ := NewWorkload("NCF", 32, 2, cfg)
	results, rates, err := CompareSchemes([]*Workload{a, b}, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	fair := results["V10-Full"].Fairness(rates, []float64{1, 1})
	if fair < 0.5 || fair > 1.0001 {
		t.Fatalf("fairness index = %v, want in (0.5, 1]", fair)
	}
}

// TestOpenLoopPMTFacade: the PMT baseline serves open-loop Poisson traffic
// and samples counters like the V10 schemes.
func TestOpenLoopPMTFacade(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := NewWorkload("MNIST", 32, 1, cfg)
	b, _ := NewWorkload("DLRM", 32, 2, cfg)
	counters := NewCounterLog()
	res, err := Collocate([]*Workload{a, b}, SchemePMT,
		Options{Requests: 3, ArrivalRateHz: 100, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Workloads {
		if w.Requests < 3 {
			t.Fatalf("%s served %d of 3 open-loop requests", w.Name, w.Requests)
		}
	}
	if len(counters.Rows) == 0 {
		t.Fatal("PMT run sampled no counters")
	}
}

func TestPremaBaselineFacade(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := NewWorkload("MNIST", 32, 1, cfg)
	b, _ := NewWorkload("DLRM", 32, 2, cfg)
	res, err := Collocate([]*Workload{a, b}, SchemePMT,
		Options{Requests: 3, PremaBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Workloads {
		if w.Requests < 3 {
			t.Fatal("PREMA baseline did not complete requests")
		}
	}
}

func TestAdvisorPlanGroups(t *testing.T) {
	cfg := DefaultConfig()
	var ws []*Workload
	for i, name := range []string{"BERT", "DLRM", "NCF", "Transformer", "MNIST", "ResNet"} {
		w, err := NewWorkload(name, 32, uint64(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	adv, err := TrainAdvisor(ws, AdvisorOptions{Clusters: 3, ProfileRequests: 2, PairSamples: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	p := adv.PlanGroups(ws, 3)
	if err := p.Validate(len(ws)); err != nil {
		t.Fatal(err)
	}
	for _, g := range p {
		if len(g) > 3 {
			t.Fatalf("group %v exceeds cap", g)
		}
	}
	// Grouped placements must still simulate.
	res, err := SimulateCluster(ws, p, SchemeV10Full, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSTP <= 0 {
		t.Fatal("grouped cluster made no progress")
	}
}

// A cycle-capped sweep must not lose information: every scheme's partial
// result (measurements up to the cap) stays in the map, the joined error
// matches ErrMaxCycles, and the lag diagnosis names the workload that was
// still incomplete when the cap hit.
func TestCompareSchemesPartialOnMaxCycles(t *testing.T) {
	cfg := DefaultConfig()
	a, err := NewWorkload("BERT", 32, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorkload("NCF", 32, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, rates, err := CompareSchemes([]*Workload{a, b}, Options{Requests: 3, MaxCycles: 50_000})
	if err == nil {
		t.Fatal("50k-cycle cap did not trip on a multi-million-cycle sweep")
	}
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if len(rates) != 2 {
		t.Fatalf("single-tenant rates = %d entries, want 2", len(rates))
	}
	for _, scheme := range []string{"PMT", "V10-Base", "V10-Fair", "V10-Full"} {
		res, ok := out[scheme]
		if !ok {
			t.Fatalf("capped scheme %s missing from partial results (have %d)", scheme, len(out))
		}
		if res.TotalCycles < 50_000 {
			t.Fatalf("%s: partial result stops at %d cycles, cap was 50k", scheme, res.TotalCycles)
		}
		if len(res.Workloads) != 2 {
			t.Fatalf("%s: partial result has %d workloads", scheme, len(res.Workloads))
		}
	}
	// The diagnosis must name at least one lagging workload with its
	// progress so the timeout is actionable without re-running.
	msg := err.Error()
	if !strings.Contains(msg, a.Name) && !strings.Contains(msg, b.Name) {
		t.Fatalf("lag diagnosis does not name a workload: %s", msg)
	}
	if !strings.Contains(msg, "incomplete") {
		t.Fatalf("lag diagnosis missing progress detail: %s", msg)
	}
}

// TestServeFleetOptionsError: ServeFleet reports rejected options, the
// facade's own pairings included, as a *FleetOptionsError before simulating.
func TestServeFleetOptionsError(t *testing.T) {
	w, err := NewWorkload("BERT", 2, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	failCore2, err := ParseFaults("fail@2:1000")
	if err != nil {
		t.Fatal(err)
	}
	tuned := BuiltinTunedKnobs()
	for name, opt := range map[string]FleetOptions{
		"advisor placement without an advisor": {Policy: PlaceAdvisor},
		"tuned over a negative queue limit":    {QueueLimit: -3, Tuned: &tuned},
		"fault on an absent core":              {Faults: &FleetFaults{Schedule: failCore2}},
		"negative heartbeat":                   {Faults: &FleetFaults{HeartbeatCycles: -1}},
		"slices without templates":             {Slices: &FleetSlices{WindowCycles: 4096}},
		"autoscale with faults": {
			Cores: 3, Faults: &FleetFaults{Schedule: failCore2}, Elastic: &ElasticConfig{MinCores: 1},
		},
	} {
		var oe *FleetOptionsError
		if _, err := ServeFleet([]*Workload{w}, SchemeV10Full, opt); !errors.As(err, &oe) {
			t.Errorf("%s: want a *FleetOptionsError, got %v", name, err)
		}
	}
}

// TestLLMPhasesRejectBadShapes: a batch or token count below 1 is an error,
// not a panic.
func TestLLMPhasesRejectBadShapes(t *testing.T) {
	cfg := DefaultConfig()
	for _, sh := range [][2]int{{0, 512}, {8, 0}, {-1, -1}} {
		if w, err := LLMPrefill("p", sh[0], sh[1], 1, cfg); err == nil || w != nil {
			t.Errorf("LLMPrefill batch %d prompt %d: got %v, %v; want an error", sh[0], sh[1], w, err)
		}
		if w, err := LLMDecode("d", sh[0], sh[1], 1, cfg); err == nil || w != nil {
			t.Errorf("LLMDecode batch %d context %d: got %v, %v; want an error", sh[0], sh[1], w, err)
		}
	}
	if _, err := LLMPrefill("p", 8, 512, 1, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := LLMDecode("d", 8, 1024, 1, cfg); err != nil {
		t.Fatal(err)
	}
}
