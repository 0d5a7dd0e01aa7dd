package experiments

import (
	"strings"
	"testing"
)

func TestWorkloadSweepExperiment(t *testing.T) {
	c := testContext()
	tb, err := c.WorkloadSweep()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3; len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d (scenarios × policies)", len(tb.Rows), want)
	}
	goodput := map[string]map[string]float64{}
	for _, row := range tb.Rows {
		scenario, policy := row[0], row[1]
		g := parseFloatCell(t, row[5])
		if g < 0 {
			t.Fatalf("negative goodput %v", g)
		}
		f := parseFloatCell(t, row[7])
		if f < 0 || f > 1 {
			t.Fatalf("%s/%s: Jain fairness %v outside [0,1]", scenario, policy, f)
		}
		if goodput[scenario] == nil {
			goodput[scenario] = map[string]float64{}
		}
		goodput[scenario][policy] = g
	}
	// The satellite acceptance criterion: compatibility-aware placement must
	// beat load-only placement on goodput under bursty MMPP traffic AND under
	// the anti-phased LLM prefill/decode mix.
	for _, scenario := range []string{"bursty", "prefill/decode"} {
		adv, ll := goodput[scenario]["advisor"], goodput[scenario]["least-loaded"]
		if adv <= ll {
			t.Errorf("%s: advisor goodput %v <= least-loaded %v", scenario, adv, ll)
		}
	}
	if !strings.Contains(tb.Note, "advisor vs least-loaded") {
		t.Errorf("note missing the comparison: %q", tb.Note)
	}
}

func TestWorkloadSweepDeterministic(t *testing.T) {
	a, err := testContext().WorkloadSweep()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testContext().WorkloadSweep()
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WorkloadSweep is nondeterministic across contexts")
	}
}
