package workload

import (
	"fmt"
	"math"

	"v10/internal/mathx"
	"v10/internal/npu"
	"v10/internal/trace"
)

// Class is one tenant class in a composed mix: Count tenants sharing a
// workload family and a traffic spec. Workload receives the class-local
// tenant index and a derived seed so every tenant gets a distinct name and
// jitter stream.
type Class struct {
	Name     string
	Count    int
	Workload func(i int, seed uint64) *trace.Workload
	Traffic  Spec
}

// Mix is a composed tenant population: parallel slices of workloads and
// traffic specs, index i describing tenant i. Feed Workloads to the fleet
// and Specs to Engine.Schedules (or fleet.Options.Arrivals).
type Mix struct {
	Workloads []*trace.Workload
	Specs     []Spec
}

// Compose flattens classes into a Mix, interleaving classes round-robin so a
// prefix of the tenant list is still representative (placement policies see
// tenants in order).
func Compose(seed uint64, classes ...Class) Mix {
	var m Mix
	idx := make([]int, len(classes))
	for {
		progressed := false
		for c := range classes {
			if idx[c] >= classes[c].Count {
				continue
			}
			i := idx[c]
			idx[c]++
			progressed = true
			tseed := seed + uint64(c)*0xd1342543de82ef95 + uint64(i)*0x2545f4914f6cdd1d
			m.Workloads = append(m.Workloads, classes[c].Workload(i, tseed))
			m.Specs = append(m.Specs, classes[c].Traffic)
		}
		if !progressed {
			return m
		}
	}
}

// HeavyTailBatches draws n batch sizes from a lognormal with the given mean
// and coefficient of variation, clamped to [1, maxBatch]. cv ≈ 1.2 gives the
// production-like shape: most tenants small, a heavy tail of large ones.
func HeavyTailBatches(n int, mean, cv float64, maxBatch int, seed uint64) []int {
	rng := mathx.NewRNG(seed + 0xba7c4)
	// float64(...) rounds the product, so no architecture fuses a multiply-add.
	sigma2 := math.Log(1 + float64(cv*cv))
	out := make([]int, n)
	for i := range out {
		b := int(math.Round(rng.LogNormal(math.Log(mean)-float64(sigma2/2), math.Sqrt(sigma2))))
		if b < 1 {
			b = 1
		}
		if b > maxBatch {
			b = maxBatch
		}
		out[i] = b
	}
	return out
}

// PrefillDecodeMix is the flagship FlexNPU scenario: half the tenants run
// LLM prefill (SA/compute-bound), half run decode (VU/HBM-bound), with
// heavy-tailed batch and sequence-length draws and anti-phased diurnal
// traffic — prefill peaks at the start of the period, decode half a period
// later (a decode wave follows the prompts it is answering). rateHz is the
// per-tenant mean for prefill; decode tenants run 4× hotter (each decode
// request is an 8-token chunk, so one generation is many requests).
func PrefillDecodeMix(tenants int, rateHz float64, cfg npu.CoreConfig, seed uint64) Mix {
	if tenants < 2 {
		tenants = 2
	}
	nPrefill := tenants / 2
	nDecode := tenants - nPrefill

	batches := HeavyTailBatches(tenants, 8, 1.2, 32, seed)
	lens := HeavyTailBatches(tenants, 512, 0.9, 4096, seed+1) // prompt/context tokens

	prefill := Class{
		Name:  "prefill",
		Count: nPrefill,
		Workload: func(i int, s uint64) *trace.Workload {
			return Prefill(nameIndexed("prefill", i), batches[i], lens[i], s, cfg)
		},
		Traffic: Spec{Process: Diurnal, RateHz: rateHz, Amplitude: 0.8, PhaseFrac: 0},
	}
	decode := Class{
		Name:  "decode",
		Count: nDecode,
		Workload: func(i int, s uint64) *trace.Workload {
			j := nPrefill + i
			return Decode(nameIndexed("decode", i), batches[j], mathx.MaxInt(lens[j], 128), s, cfg)
		},
		Traffic: Spec{Process: Diurnal, RateHz: 4 * rateHz, Amplitude: 0.8, PhaseFrac: 0.5},
	}
	return Compose(seed, prefill, decode)
}

// nameIndexed builds a per-tenant unique name ("prefill-3"); the fleet's
// pairwise-profile cache keys on names, so duplicates would alias.
func nameIndexed(class string, i int) string {
	return fmt.Sprintf("%s-%d", class, i)
}
