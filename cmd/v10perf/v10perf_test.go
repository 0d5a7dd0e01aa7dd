package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"v10/internal/simcheck"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, {99, 90, false}, {200, 95, true}, {199, 95, false},
		{1000, 99, true}, {999, 99, false}, {20, 50, true}, {19, 50, false},
	} {
		if got := percentileOK(c.n, c.p); got != c.want {
			t.Errorf("percentileOK(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	// The minimum timed run length is what makes iter_p90_ms valid.
	if !percentileOK(minTimed, tailPct) {
		t.Errorf("minTimed %d leaves fewer than 10 samples beyond p%d", minTimed, tailPct)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "kid", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "kid", ID: 2, Parent: 0, Start: 30, End: 50},  // overlaps the first
		{Name: "kid", ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Name: "leaf", ID: 4, Parent: 1, Start: 15, End: 20},
	}
	got := map[string]spanStat{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	// root: 100 - |[10,50) ∪ [90,100)| = 100 - 50.
	if s := got["root"]; s.TotalNs != 100 || s.SelfNs != 50 {
		t.Errorf("root = %+v, want total 100 self 50", s)
	}
	// kids: totals 30+20+30; the first loses its 5 ns leaf.
	if s := got["kid"]; s.Count != 3 || s.TotalNs != 80 || s.SelfNs != 75 {
		t.Errorf("kid = %+v, want count 3 total 80 self 75", s)
	}
}

// TestSeededInputsDeterministic: the same seed gives the same inputs and the
// same simulated outputs; another seed gives other ones. The check sweep's
// trials are a fixed set that the seed puts in order.
func TestSeededInputsDeterministic(t *testing.T) {
	def, _ := findWorkload("llm-prefill-decode")
	digest := func(seed uint64) [32]byte {
		t.Helper()
		r, err := settings{def: def, tiny: true}.setup(baseSeed(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.run(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := digestOf(out)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if a, b, c := digest(7), digest(7), digest(8); a != b || a == c {
		t.Errorf("%s: seed 7 digests %x, %x; seed 8 %x", def.name, a[:6], b[:6], c[:6])
	}

	corpus := func(seed uint64) []trial { return checkCorpus(baseSeed(seed), baseArmSeeds(), 5) }
	x, y, z := corpus(3), corpus(3), corpus(4)
	if len(x) != len(baseArmSeeds())+4*5 {
		t.Fatalf("corpus size %d", len(x))
	}
	if !slices.Equal(x, y) {
		t.Error("seed 3 gave two different corpora")
	}
	if slices.Equal(x, z) {
		t.Error("seeds 3 and 4 gave the same corpus order")
	}
	byTrial := func(a, b trial) int { return cmp.Or(cmp.Compare(a.arm, b.arm), cmp.Compare(a.seed, b.seed)) }
	slices.SortFunc(x, byTrial)
	slices.SortFunc(z, byTrial)
	if !slices.Equal(x, z) {
		t.Error("seeds 3 and 4 gave different sets of trials")
	}
}

// TestTrialDigestCoversOutputs: a base-arm trial's digest hashes the
// simulated results, so a scenario that simulates differently under the same
// arm and seed changes it.
func TestTrialDigestCoversOutputs(t *testing.T) {
	digest := func(sc *simcheck.Scenario) [32]byte {
		t.Helper()
		d, err := trialDigest(&trial{arm: 0, seed: 1, scenario: sc})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	sc := simcheck.GenScenario(1)
	longer := *simcheck.GenScenario(1)
	longer.Requests++
	if a, b, c := digest(sc), digest(simcheck.GenScenario(1)), digest(&longer); a != b || a == c {
		t.Errorf("digests %x, %x; one more request %x", a[:6], b[:6], c[:6])
	}
}

// TestSmokeAllWorkloads runs every workload at a tiny size through both
// passes and checks that the result line carries every registered metric with
// its unit and no failure.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, def := range workloads {
		rep, err := measure(settings{def: def, seed: 1, seconds: 0.01, e2e: true, traced: true, tiny: true})
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: fail_ratio %d/%d: %v", def.name, rep.Failed, rep.Attempted, rep.Problems)
		}
		res := summarize([]*report{rep})
		for _, d := range registry {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit == "" {
				t.Errorf("%s: metric %s missing or without unit: %+v", def.name, d.Name, m)
			}
		}
		if len(res.Metrics) != len(registry) {
			t.Errorf("%s: %d metrics, registry has %d", def.name, len(res.Metrics), len(registry))
		}
		for _, d := range registry {
			if !d.layer && !(rep.Metrics[d.Name] > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.name, d.Name, rep.Metrics[d.Name])
			}
		}
		var out bytes.Buffer
		printReport(&out, rep)
		if !strings.Contains(out.String(), "work_per_s") {
			t.Errorf("%s: report lacks work_per_s:\n%s", def.name, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesRegistry pins BENCHMARK.json to the code: the same
// workloads and run_seconds, and the same metrics with the same units,
// directions and bounds.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %v, the code's default -seconds %v", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, code %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e, layers []metricDef
	for _, d := range registry {
		if d.layer {
			layers = append(layers, d)
		} else {
			e2e = append(e2e, d)
		}
	}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the registry %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || m.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, registry %+v", kind, i, m, w)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, e2e)
	compare("per_layer", doc.PerLayer, layers)
}
