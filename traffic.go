package v10

import (
	"fmt"

	"v10/internal/npu"
	"v10/internal/workload"
)

// Traffic generation (see internal/workload): a deterministic, seeded engine
// that turns per-tenant traffic specs — Poisson, uniform, diurnal, MMPP
// flash-crowd, or production-trace replay — into explicit absolute
// arrival-cycle schedules for FleetOptions.Arrivals or
// Options.ArrivalCycles, plus an LLM prefill/decode tenant-mix composer for
// FlexNPU-style collocation studies.

// TrafficProcess names a stochastic arrival process.
type TrafficProcess = workload.Process

// Arrival processes.
const (
	// TrafficPoisson is a homogeneous Poisson stream at RateHz.
	TrafficPoisson = workload.Poisson
	// TrafficUniform spaces arrivals evenly at RateHz.
	TrafficUniform = workload.Uniform
	// TrafficDiurnal modulates a Poisson stream with a cosine day-night
	// cycle (Amplitude, PeriodCycles, PhaseFrac).
	TrafficDiurnal = workload.Diurnal
	// TrafficMMPP is a two-state Markov-modulated Poisson process: calm
	// base rate with BurstFactor-times flash crowds (BurstFrac of time).
	TrafficMMPP = workload.MMPP
	// TrafficReplay loops a recorded inter-arrival-gap trace (GapsSec),
	// optionally rate-normalized.
	TrafficReplay = workload.Replay
)

// ParseTrafficProcess maps a CLI spelling ("poisson", "uniform", "diurnal",
// "mmpp", "trace") to a TrafficProcess.
func ParseTrafficProcess(s string) (TrafficProcess, error) { return workload.ParseProcess(s) }

// TrafficSpec describes one tenant's arrival stream for a TrafficEngine.
type TrafficSpec = workload.Spec

// TrafficEngine converts TrafficSpecs into per-tenant arrival-cycle
// schedules, deterministically in (Seed, tenant index) and independent of
// fleet size or evaluation order.
type TrafficEngine = workload.Engine

// TrafficTrace is a parsed production trace: named streams of
// inter-arrival gaps in seconds, replayable via TrafficSpec.
type TrafficTrace = workload.Trace

// ReadTraceFile parses a trace file: '#' comments, then one stream per line
// as "<name> <gap-seconds>...".
func ReadTraceFile(path string) (*TrafficTrace, error) { return workload.ReadTraceFile(path) }

// TenantClass is one homogeneous tenant group inside a TenantMix.
type TenantClass = workload.Class

// TenantMix is a composed multi-class tenant population: workloads aligned
// index-for-index with their traffic specs.
type TenantMix = workload.Mix

// ComposeMix interleaves tenant classes round-robin into a Mix, seeding each
// tenant independently.
func ComposeMix(seed uint64, classes ...TenantClass) TenantMix {
	return workload.Compose(seed, classes...)
}

// LLMPrefill builds a prefill-phase LLM workload: systolic-array-bound
// attention/MLP blocks with light HBM traffic, scaled by batch x prompt
// tokens. It fails for a batch or prompt length below 1.
func LLMPrefill(name string, batch, promptTokens int, seed uint64, cfg npu.CoreConfig) (*Workload, error) {
	if batch < 1 || promptTokens < 1 {
		return nil, fmt.Errorf("v10: invalid prefill shape: batch %d, prompt tokens %d (both must be >= 1)", batch, promptTokens)
	}
	return workload.Prefill(name, batch, promptTokens, seed, cfg), nil
}

// LLMDecode builds a decode-phase LLM workload: vector-unit- and
// HBM-bandwidth-bound single-token steps over a batch's KV cache. It fails
// for a batch or context length below 1.
func LLMDecode(name string, batch, contextTokens int, seed uint64, cfg npu.CoreConfig) (*Workload, error) {
	if batch < 1 || contextTokens < 1 {
		return nil, fmt.Errorf("v10: invalid decode shape: batch %d, context tokens %d (both must be >= 1)", batch, contextTokens)
	}
	return workload.Decode(name, batch, contextTokens, seed, cfg), nil
}

// PrefillDecodeMix composes the flagship LLM serving scenario: half the
// tenants prefill-heavy (compute-bound, daytime-peaked diurnal traffic),
// half decode-heavy (memory-bound, anti-phased at 4x the rate), with
// heavy-tailed batch sizes and context lengths. Feed the result to ServeFleet
// via a TrafficEngine.
func PrefillDecodeMix(tenants int, rateHz float64, cfg npu.CoreConfig, seed uint64) TenantMix {
	return workload.PrefillDecodeMix(tenants, rateHz, cfg, seed)
}
