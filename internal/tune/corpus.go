package tune

import (
	"fmt"

	"v10/internal/collocate"
	"v10/internal/ctlplane"
	"v10/internal/faults"
	"v10/internal/fleet"
	"v10/internal/mathx"
	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/trace"
	"v10/internal/workload"
)

// ScenarioScore is one scenario's measurement of one knob vector: the raw
// serving metrics the aggregate objectives are computed from.
type ScenarioScore struct {
	Scenario  string  `json:"scenario"`
	GoodputHz float64 `json:"goodput_hz"`
	P99Cycles float64 `json:"p99_cycles"` // worst per-tenant p99 latency
	Fairness  float64 `json:"fairness"`   // Jain's index over per-tenant good completions
	Completed int     `json:"completed"`
	Shed      int     `json:"shed"`
}

// Scenario is one seeded, deterministic evaluation cell of the corpus: Run
// is a pure function of the knob vector (the scenario's tenants, arrival
// schedules, fault schedule, and advisor model are all fixed at corpus
// construction).
type Scenario struct {
	Name string
	run  func(k Knobs, parallel int) (ScenarioScore, error)
}

// Run scores one knob vector on this scenario. parallel bounds the worker
// goroutines of the underlying fleet simulation (results are bit-identical
// at any width).
func (s Scenario) Run(k Knobs, parallel int) (ScenarioScore, error) {
	return s.run(k, parallel)
}

// corpusMix is the corpus tenant population: the same interleaved SA-heavy /
// VU-heavy mix as the paper's fleet experiments, at batch 8.
var corpusMix = []string{"BERT", "NCF", "TFMR", "DLRM", "RsNt", "MNST", "SMask", "ENet"}

// Corpus horizons and rates. The cells are deliberately shorter than the
// paper experiments — the search evaluates hundreds of candidates, and the
// knob ordering is already stable at these scales — but long enough for
// several control intervals, a mid-run fault, and diurnal swings.
const (
	corpusFleetHorizon   = 24_000_000
	corpusFaultHorizon   = 32_000_000
	corpusFaultMTTF      = 110_000_000
	corpusElasticHorizon = 24_000_000
	corpusRateHz         = 220
	corpusElasticRateHz  = 150
)

// DefaultCorpus builds the fixed four-scenario evaluation corpus:
//
//   - fleet:    steady-state Poisson serving on 4 cores under advisor
//     placement and a tight 4× SLO — the headline goodput cell.
//   - faults:   the same fleet with a seeded fail-stop schedule, loose 25×
//     SLO, and checkpoint-driven migration — exercises the migration
//     backoff and the advisor-gated recovery targets.
//   - workload: the LLM prefill/decode mix on anti-phased diurnal traffic
//     under least-loaded placement — the queue bound and priority knobs
//     carry this cell.
//   - elastic:  a 6-core autoscaled fleet (3-core floor) on high-amplitude
//     diurnal traffic with predictive admission and one realized-latency
//     feedback round — the ctlplane and admission knobs' surface.
//
// Everything random is derived from seed; the corpus itself (advisor
// training included) is built eagerly so Scenario.Run is pure and cheap to
// repeat. The same seed always yields the same corpus.
func DefaultCorpus(seed uint64, parallel int) ([]Scenario, error) {
	cfg := npu.DefaultConfig()
	tenants := make([]*trace.Workload, len(corpusMix))
	for i, abbrev := range corpusMix {
		spec, ok := models.ByName(abbrev)
		if !ok {
			return nil, fmt.Errorf("tune: unknown corpus model %q", abbrev)
		}
		s := seed + 8*977
		for _, ch := range abbrev {
			s = s*131 + uint64(ch)
		}
		tenants[i] = spec.Workload(8, s, cfg)
	}

	const profileRequests = 3
	model, err := collocate.TrainSimulated(tenants, cfg, profileRequests,
		collocate.TrainConfig{K: 4, PairSamples: 8, Seed: seed, Parallel: parallel})
	if err != nil {
		return nil, fmt.Errorf("tune: training corpus advisor: %w", err)
	}

	faultSchedule := faults.Generate(4, corpusFaultHorizon, corpusFaultMTTF, seed)

	mix := workload.PrefillDecodeMix(len(corpusMix), corpusRateHz, cfg, seed)
	llmEng := workload.Engine{Config: cfg, HorizonCycles: corpusFleetHorizon, Seed: seed}
	llmArrivals, err := llmEng.Schedules(mix.Specs)
	if err != nil {
		return nil, fmt.Errorf("tune: scheduling prefill/decode arrivals: %w", err)
	}

	diurnal := make([]workload.Spec, len(tenants))
	for i := range diurnal {
		diurnal[i] = workload.Spec{Process: workload.Diurnal, RateHz: corpusElasticRateHz, Amplitude: 0.9}
	}
	elEng := workload.Engine{Config: cfg, HorizonCycles: corpusElasticHorizon, Seed: seed}
	elArrivals, err := elEng.Schedules(diurnal)
	if err != nil {
		return nil, fmt.Errorf("tune: scheduling diurnal arrivals: %w", err)
	}

	cell := func(name string, base func() fleet.Options, ws []*trace.Workload) Scenario {
		return Scenario{Name: name, run: func(k Knobs, parallel int) (ScenarioScore, error) {
			o := k.Apply(base())
			o.Parallel = parallel
			res, err := fleet.Run(ws, o)
			if err != nil {
				return ScenarioScore{}, fmt.Errorf("tune: scenario %s: %w", name, err)
			}
			return score(name, res), nil
		}}
	}

	return []Scenario{
		cell("fleet", func() fleet.Options {
			return fleet.Options{
				Config:         cfg,
				Cores:          4,
				Policy:         fleet.PolicyAdvisor,
				Model:          model,
				RateHz:         corpusRateHz,
				DurationCycles: corpusFleetHorizon,
				SLOFactor:      4,
				Seed:           seed,
			}
		}, tenants),
		cell("faults", func() fleet.Options {
			return fleet.Options{
				Config:         cfg,
				Cores:          4,
				Policy:         fleet.PolicyAdvisor,
				Model:          model,
				RateHz:         corpusRateHz,
				DurationCycles: corpusFaultHorizon,
				SLOFactor:      25,
				Faults:         &fleet.FaultOptions{Schedule: faultSchedule, HeartbeatCycles: 250_000, MissedBeats: 2},
				Seed:           seed,
			}
		}, tenants),
		cell("workload", func() fleet.Options {
			return fleet.Options{
				Config:         cfg,
				Cores:          4,
				Policy:         fleet.PolicyLeastLoaded,
				Arrivals:       llmArrivals,
				DurationCycles: corpusFleetHorizon,
				SLOFactor:      8,
				Seed:           seed,
			}
		}, mix.Workloads),
		cell("elastic", func() fleet.Options {
			return fleet.Options{
				Config:         cfg,
				Cores:          6,
				Policy:         fleet.PolicyLeastLoaded,
				Arrivals:       elArrivals,
				DurationCycles: corpusElasticHorizon,
				SLOFactor:      4,
				Admission:      fleet.AdmitPredictive,
				EstimateScale:  0.45,
				FeedbackRounds: 1,
				Elastic: &ctlplane.Config{
					MinCores:          3,
					IntervalCycles:    corpusElasticHorizon / 24,
					HysteresisWindows: 1,
				},
				Seed: seed,
			}
		}, tenants),
	}, nil
}

// score folds a fleet result into the scenario's scalar metrics.
func score(name string, res *fleet.Result) ScenarioScore {
	s := ScenarioScore{
		Scenario:  name,
		GoodputHz: res.GoodputHz,
		Completed: res.Completed,
		Shed:      res.Shed,
	}
	good := make([]float64, len(res.Tenants))
	for i, ts := range res.Tenants {
		if ts.P99LatencyCycles > s.P99Cycles {
			s.P99Cycles = ts.P99LatencyCycles
		}
		good[i] = float64(ts.Good)
	}
	// Jain's index over good completions; zero-good runs score 0.
	if res.Good > 0 {
		s.Fairness = mathx.JainFairness(good)
	}
	return s
}
