package tune

import (
	"math"
	"testing"

	"v10/internal/fleet"
)

// TestJain checks score's fairness: Jain's index over per-tenant good
// completions, and 0 when nothing completed in time.
func TestJain(t *testing.T) {
	cases := []struct {
		good []int
		want float64
	}{
		{[]int{5, 5, 5, 5}, 1},
		{[]int{1, 0, 0, 0}, 0.25},
		{[]int{0, 0}, 0},
		{nil, 0},
	}
	for _, c := range cases {
		res := &fleet.Result{}
		for _, g := range c.good {
			res.Tenants = append(res.Tenants, fleet.TenantStats{Good: g})
			res.Good += g
		}
		if got := score("x", res).Fairness; math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("fairness of good %v = %v, want %v", c.good, got, c.want)
		}
	}
}

// TestDefaultCorpusShape builds the real corpus once and checks its cell
// roster, gate coverage, and that scoring is a pure function of the knobs
// (two runs of the same cell agree bit-exactly).
func TestDefaultCorpusShape(t *testing.T) {
	corpus, err := DefaultCorpus(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fleet", "faults", "workload", "elastic"}
	if len(corpus) != len(want) {
		t.Fatalf("corpus has %d cells, want %d", len(corpus), len(want))
	}
	gates := 0
	for i, sc := range corpus {
		if sc.Name != want[i] {
			t.Fatalf("cell %d named %q, want %q", i, sc.Name, want[i])
		}
		if GateScenarios[sc.Name] {
			gates++
		}
	}
	if gates != len(GateScenarios) {
		t.Fatalf("corpus covers %d of %d gate scenarios", gates, len(GateScenarios))
	}

	k := DefaultKnobs()
	s1, err := corpus[0].Run(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := corpus[0].Run(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("fleet cell not pure: %+v vs %+v", s1, s2)
	}
	if s1.Completed == 0 || s1.GoodputHz <= 0 || s1.P99Cycles <= 0 {
		t.Fatalf("fleet cell degenerate: %+v", s1)
	}
	if s1.Fairness <= 0 || s1.Fairness > 1 {
		t.Fatalf("fairness %v outside (0, 1]", s1.Fairness)
	}
}

func TestDefaultCorpusSeedChangesTenants(t *testing.T) {
	a, err := DefaultCorpus(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultCorpus(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := DefaultKnobs()
	sa, err := a[0].Run(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b[0].Run(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sa == sb {
		t.Fatalf("seeds 1 and 2 scored identically: %+v", sa)
	}
}
