package fleet

import (
	"math"
	"testing"

	"v10/internal/ctlplane"
	"v10/internal/faults"
	"v10/internal/vnpu"
)

// Option blocks FuzzFleetOptionsValidate switches on, one bit each.
const (
	fuzzFaults = 1 << iota
	fuzzSlices
	fuzzElastic
	fuzzArrivals
	fuzzRecluster
	fuzzPredictive
)

// FuzzFleetOptionsValidate hardens the fleet's one validation path: over any
// numeric field values and any mix of option blocks, Validate must return
// nil or an *OptionsError, and never panic, and options it accepts hold no
// NaN or infinite float. The seed corpus lives in
// testdata/fuzz/FuzzFleetOptionsValidate.
func FuzzFleetOptionsValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, blocks uint8, cores, queueLimit, retries, feedback int,
		duration, backoff int64, rate, slo, slowdown, scale, margin, exponent, threshold float64,
		heartbeat int64, beats, faultCore int, faultAt int64, frac float64, window int64,
		minCores int, interval, cooldown int64) {
		o := Options{
			Cores: cores, QueueLimit: queueLimit, MigrationRetries: retries, FeedbackRounds: feedback,
			DurationCycles: duration, MigrationBackoffCycles: backoff,
			RateHz: rate, SLOFactor: slo, SlowdownLimit: slowdown, EstimateScale: scale,
			PreemptMargin: margin, PriorityExponent: exponent, CollocationThreshold: threshold,
			Recluster: blocks&fuzzRecluster != 0,
		}
		if blocks&fuzzFaults != 0 {
			o.Faults = &FaultOptions{
				Schedule:        &faults.Schedule{Faults: []faults.Fault{{Kind: faults.KindFail, Core: faultCore, At: faultAt}}},
				HeartbeatCycles: heartbeat, MissedBeats: beats,
			}
		}
		if blocks&fuzzSlices != 0 {
			o.Slices = &SliceOptions{WindowCycles: window, Templates: []vnpu.Template{
				{Name: "a", Compute: frac, VMem: frac, HBM: frac},
				{Name: "b", Compute: 1 - frac, VMem: 1 - frac, HBM: 1 - frac},
			}}
		}
		if blocks&fuzzElastic != 0 {
			o.Elastic = &ctlplane.Config{MinCores: minCores, IntervalCycles: interval, CooldownCycles: cooldown}
		}
		if blocks&fuzzArrivals != 0 {
			o.Arrivals = [][]int64{{0, faultAt}}
		}
		if blocks&fuzzPredictive != 0 {
			o.Admission = AdmitPredictive
		}
		err := o.Validate()
		if err != nil {
			if _, ok := err.(*OptionsError); !ok {
				t.Fatalf("Validate returned %T, want *OptionsError: %v", err, err)
			}
			return
		}
		floats := []float64{rate, slo, slowdown, scale, margin, exponent, threshold}
		if o.Slices != nil {
			floats = append(floats, frac)
		}
		for _, v := range floats {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Validate accepted the non-finite %v in %+v", v, o)
			}
		}
	})
}
