package v10

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// countedTenants wraps model-zoo workloads in plain generators that count
// every request synthesis into calls.
func countedTenants(t *testing.T, calls *atomic.Int64) []*Workload {
	t.Helper()
	cfg := DefaultConfig()
	var ws []*Workload
	for i, name := range []string{"BERT", "NCF", "DLRM", "ResNet"} {
		base, err := NewWorkload(name, 8, uint64(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, CustomWorkload(fmt.Sprintf("%s#%d", name, i), func(r int) *Graph {
			calls.Add(1)
			return base.Request(r)
		}))
	}
	return ws
}

// TestProfileSynthesizedOnce follows the serving pipeline's synthesis count:
// advisor training profiles each tenant's requests once, and neither the
// fleet run nor repeated advisor queries profile them again.
func TestProfileSynthesizedOnce(t *testing.T) {
	const profiled = 3
	opt := AdvisorOptions{Clusters: 2, ProfileRequests: profiled, PairSamples: 2, Seed: 1, Parallel: 1}

	// Training synthesizes the profile plus the pair simulations' requests;
	// tenants whose profile is already memoized synthesize only the latter.
	var cold, warm atomic.Int64
	ws := countedTenants(t, &cold)
	adv, err := TrainAdvisor(ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	pre := countedTenants(t, &warm)
	for _, w := range pre {
		w.ProfileStats(profiled)
	}
	warm.Store(0)
	if _, err := TrainAdvisor(pre, opt); err != nil {
		t.Fatal(err)
	}
	if got, want := cold.Load()-warm.Load(), int64(profiled*len(ws)); got != want {
		t.Fatalf("training profiled %d requests more than with a pre-filled memo, want %d (each profiled request once)", got, want)
	}

	// Serving: every synthesis is an admitted request on its core.
	cold.Store(0)
	res, err := ServeFleet(ws, SchemeV10Full, FleetOptions{
		Cores: 2, Policy: PlaceAdvisor, Advisor: adv, DurationCycles: 20e6, Seed: 3, Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Fatal("fleet admitted nothing")
	}
	if got := cold.Load(); got != int64(res.Admitted) {
		t.Fatalf("fleet run synthesized %d requests for %d admitted", got, res.Admitted)
	}

	// Feedback rounds re-run the whole pass but not the profile: with no
	// arrivals there is nothing else to synthesize.
	cold.Store(0)
	res, err = ServeFleet(ws, SchemeV10Full, FleetOptions{
		Cores: 2, Policy: PlaceAdvisor, Advisor: adv, Arrivals: make([][]int64, len(ws)),
		DurationCycles: 20e6, FeedbackRounds: 2, Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Calibration) != 3 {
		t.Fatalf("%d calibration rounds, want 3", len(res.Calibration))
	}
	for i := 0; i < 3; i++ {
		adv.PredictGain(ws[0], ws[1])
		adv.ShouldCollocate(ws[2], ws[3])
		adv.Cluster(ws[i])
		adv.PlanPairs(ws)
	}
	if got := cold.Load(); got != 0 {
		t.Fatalf("feedback rounds and advisor queries synthesized %d requests, want 0", got)
	}
}
