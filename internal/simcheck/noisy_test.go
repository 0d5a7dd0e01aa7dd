package simcheck

import (
	"testing"

	"v10/internal/fleet"
)

// noisyArms runs the three arms of a noisy-neighbor comparison for one
// seeded scenario: the victim alone on its slice, the victim with the
// aggressors under enforced slicing, and the victim with the aggressors on
// the bare core (V10 temporal interleaving only — no templates, no
// ceilings, no token bucket). All three arms share the scenario's arrival
// schedules, so the only variable is enforcement.
type noisyArms struct {
	scenario *FleetScenario
	alone    *fleet.Result
	sliced   *fleet.Result
	unsliced *fleet.Result
}

func runNoisyArms(t *testing.T, seed uint64) noisyArms {
	t.Helper()
	is := GenIsolationScenario(seed)
	victim := *is
	victim.Workloads = is.Workloads[:1]

	alone, err := fleet.Run(buildWorkloads(victim.Workloads, false), victim.options(is.Arrivals[:1], nil))
	if err != nil {
		t.Fatalf("seed %d victim-alone run: %v", seed, err)
	}
	sliced, err := fleet.Run(buildWorkloads(is.Workloads, false), is.options(is.Arrivals, nil))
	if err != nil {
		t.Fatalf("seed %d sliced run: %v", seed, err)
	}
	bare := is.options(is.Arrivals, nil)
	bare.Slices = nil
	bare.PinnedSlices = nil
	unsliced, err := fleet.Run(buildWorkloads(is.Workloads, false), bare)
	if err != nil {
		t.Fatalf("seed %d unsliced run: %v", seed, err)
	}
	return noisyArms{scenario: is, alone: alone, sliced: sliced, unsliced: unsliced}
}

// TestNoisyNeighborRegression is the table-driven victim/aggressor suite:
// for each aggressor archetype it pins how far the victim's p99 may move
// under enforced slicing (barely at all — the virtual per-slice engine sets
// decouple the victim completely, so its sliced tail equals its alone tail
// up to the containment slack), and, where the archetype is violent enough,
// that removing enforcement demonstrably hurts the victim. The ratios are
// regression pins, not physics: if enforcement weakens, slicedMax trips; if
// the aggressors stop aggressing (generator drift), unslicedMin trips.
func TestNoisyNeighborRegression(t *testing.T) {
	cases := []struct {
		name string
		seed uint64
		// aggressor documents (and asserts) the archetype the seed rotates to.
		aggressor string
		// slicedMax bounds victim p99 under slicing as a multiple of alone p99.
		slicedMax float64
		// unslicedMin, when nonzero, requires the bare-core victim p99 to be at
		// least this multiple of alone p99 — proof the aggressor actually bites
		// and only enforcement is saving the victim.
		unslicedMin float64
		// wantThrottle requires the aggressor slice to have hit the token
		// bucket (stall-not-shed throttling observed).
		wantThrottle bool
	}{
		{name: "hbm-flood", seed: 0, aggressor: "hbm-flood", slicedMax: 1.05, unslicedMin: 1.5, wantThrottle: true},
		{name: "vmem-hog", seed: 1, aggressor: "vmem-hog", slicedMax: 1.05, wantThrottle: true},
		{name: "flash-crowd", seed: 2, aggressor: "flash-crowd", slicedMax: 1.05},
		{name: "hbm-flood-alt", seed: 9, aggressor: "hbm-flood", slicedMax: 1.05, unslicedMin: 1.5, wantThrottle: true},
		{name: "vmem-hog-alt", seed: 4, aggressor: "vmem-hog", slicedMax: 1.05, wantThrottle: true},
		{name: "flash-crowd-alt", seed: 5, aggressor: "flash-crowd", slicedMax: 1.05},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arms := runNoisyArms(t, tc.seed)
			is := arms.scenario
			if is.Aggressor != tc.aggressor {
				t.Fatalf("seed %d generates %s, table expects %s", tc.seed, is.Aggressor, tc.aggressor)
			}
			alone := arms.alone.Tenants[0]
			slicedV := arms.sliced.Tenants[0]
			unslicedV := arms.unsliced.Tenants[0]
			if alone.Completed == 0 || slicedV.Completed == 0 || unslicedV.Completed == 0 {
				t.Fatalf("victim starved: alone %d, sliced %d, unsliced %d completions",
					alone.Completed, slicedV.Completed, unslicedV.Completed)
			}
			slicedRatio := slicedV.P99LatencyCycles / alone.P99LatencyCycles
			unslicedRatio := unslicedV.P99LatencyCycles / alone.P99LatencyCycles
			t.Logf("alone p99 %.0f; sliced ratio %.3f; unsliced ratio %.3f",
				alone.P99LatencyCycles, slicedRatio, unslicedRatio)

			limit := tc.slicedMax*alone.P99LatencyCycles + float64(is.SlackCycles)
			if slicedV.P99LatencyCycles > limit {
				t.Errorf("sliced victim p99 %.0f exceeds %.0f (%.2f × alone %.0f + %d slack)",
					slicedV.P99LatencyCycles, limit, tc.slicedMax, alone.P99LatencyCycles, is.SlackCycles)
			}
			if tc.unslicedMin > 0 && unslicedRatio < tc.unslicedMin {
				t.Errorf("unsliced victim p99 ratio %.2f below %.2f: the %s aggressor no longer "+
					"pressures the bare core, so this scenario proves nothing about enforcement",
					unslicedRatio, tc.unslicedMin, is.Aggressor)
			}

			var stalls, capHits int64
			for _, ss := range arms.sliced.Cores[0].Slices {
				stalls += ss.ThrottleStalls
				capHits += ss.CapHits
			}
			t.Logf("sliced arm: %d throttle stalls, %d cap hits", stalls, capHits)
			if tc.wantThrottle && stalls == 0 {
				t.Errorf("%s aggressor never hit the token bucket: the throttle path is untested by this scenario", is.Aggressor)
			}
			for _, ss := range arms.unsliced.Cores[0].Slices {
				t.Fatalf("unsliced run reported slice stats %+v", ss)
			}
		})
	}
}

// TestNoisyNeighborVictimThroughputPreserved pins the other half of the
// contract: slicing protects the victim's completions as well as its tail.
// Every request the victim completes alone must also complete next to the
// flood when slicing is on (the arrival schedules are identical).
func TestNoisyNeighborVictimThroughputPreserved(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2} {
		arms := runNoisyArms(t, seed)
		alone := arms.alone.Tenants[0]
		sliced := arms.sliced.Tenants[0]
		if sliced.Completed < alone.Completed {
			t.Errorf("seed %d (%s): victim completed %d sliced vs %d alone",
				seed, arms.scenario.Aggressor, sliced.Completed, alone.Completed)
		}
	}
}
