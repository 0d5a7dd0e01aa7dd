package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"v10/internal/collocate"
	"v10/internal/ctlplane"
	"v10/internal/fleet"
	"v10/internal/metrics"
	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/simcheck"
	"v10/internal/trace"
	"v10/internal/workload"
)

// workloadDef is one benchmark workload: a cold set-up that builds its
// inputs, then a seeded sequence of iterations over them.
type workloadDef struct {
	name string
	why  string
	// unit names one unit of work, the denominator of work_per_s and
	// alloc_kb_per_work.
	unit string
	// traceIters is the size of the traced pass, which also spans the
	// workload's digest and is the minimum number of timed iterations.
	traceIters int
	// setup builds the workload's inputs for a base seed. With a non-nil
	// probe the set-up is traced.
	setup func(base uint64, p *probe) (runner, error)
}

// runner executes the iterations of one set-up workload.
type runner interface {
	// fixedIters is the number of iterations in one pass over a fixed
	// corpus, or 0 when iterations are unbounded and the run is timed.
	fixedIters() int
	// run executes iteration i; a non-nil probe traces it.
	run(i int, p *probe) (outcome, error)
	// shrink cuts the workload down to a smoke-test size.
	shrink()
}

// outcome is one iteration's result as the benchmark checks it.
type outcome struct {
	work  float64       // completed simulated requests, or 1 trial
	res   *fleet.Result // a fleet workload's result
	trial *trial        // the check-sweep trial checked, with its scenario
	// problems are correctness failures found in an iteration that ran
	// (a conservation violation, a simcheck oracle violation).
	problems []string
}

// iterSeed is the seed of iteration i: iteration seeds of one run are
// consecutive from base, and base is far enough from other runs' bases that
// runs with different -seed values share no iteration.
func iterSeed(base uint64, i int) uint64 { return base + uint64(i) }

// baseSeed spreads -seed values so that their iteration seed ranges are
// disjoint.
func baseSeed(seed uint64) uint64 { return seed * 1_000_000 }

// warmSeed is the seed of warm-up iteration k, outside every run's
// iteration seed range.
func warmSeed(base uint64, k int) uint64 { return base + 999_000 + uint64(k) }

var workloads = []workloadDef{
	{
		name: "fleet-steady",
		why:  "operator-heavy: 8 cores, 16 model-zoo tenants, Poisson traffic; the per-core scheduler and fluid HBM pool do most of the work",
		unit: "requests", traceIters: 24,
		setup: fleetSteady,
	},
	{
		name: "llm-prefill-decode",
		why:  "request-heavy: 16 LLM prefill/decode tenants with anti-phased diurnal traffic; synthesis, arrival generation and dispatch weigh more",
		unit: "requests", traceIters: 24,
		setup: llmPrefillDecode,
	},
	{
		name: "elastic-churn",
		why:  "control-plane-heavy: autoscaled 2-6 cores under MMPP bursts with predictive admission and online re-clustering",
		unit: "requests", traceIters: 24,
		setup: elasticChurn,
	},
	{
		name: "check-sweep",
		why:  "simcheck trials with the invariant checker and event log on, tiny closed-loop scenarios, the PMT baseline, faults and vNPU slices",
		unit: "trials", traceIters: 0, // a quarter of the corpus, set by the runner
		setup: checkSweep,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// modelMix is v10serve's default tenant mix: SA-heavy and VU-heavy models
// alternate so placement has both compatible and clashing pairs.
var modelMix = []string{"BERT", "NCF", "Transformer", "DLRM", "ResNet", "MNIST", "ShapeMask", "EfficientNet"}

// modelTenants builds n tenants cycling through modelMix at one batch size,
// with v10serve's per-tenant jitter seeds and unique names.
func modelTenants(n, batch int, cfg npu.CoreConfig) ([]*trace.Workload, error) {
	out := make([]*trace.Workload, n)
	for i := range out {
		spec, ok := models.ByName(modelMix[i%len(modelMix)])
		if !ok {
			return nil, fmt.Errorf("unknown model %q", modelMix[i%len(modelMix)])
		}
		w := *spec.Workload(batch, uint64(i+1), cfg)
		w.Name = fmt.Sprintf("%s#%d", w.Name, i)
		out[i] = &w
	}
	return out, nil
}

// advisorRequests is the profile depth of advisor training, as in v10serve.
const advisorRequests = 3

// trainAdvisor trains the collocation advisor the way v10serve does (4
// clusters, 3 profile requests, 8 pair samples), timing its phases when
// traced.
func trainAdvisor(tenants []*trace.Workload, cfg npu.CoreConfig, p *probe) (*collocate.Model, error) {
	feats := make([]collocate.Features, len(tenants))
	p.phase("collocate.features", func() {
		for i, w := range tenants {
			feats[i] = collocate.ExtractFeatures(w, cfg, advisorRequests)
		}
	})
	perf := p.wrapPairPerf(collocate.SimPairPerf(cfg, advisorRequests))
	var model *collocate.Model
	var err error
	p.phase("collocate.train", func() {
		model, err = collocate.Train(tenants, feats, perf, collocate.TrainConfig{
			K: 4, PairSamples: 8, Seed: 1, Parallel: fleetParallel,
		})
	})
	return model, err
}

// fleetParallel is the per-core simulation width, equal to GOMAXPROCS in the
// measuring process.
const fleetParallel = 2

// fleetRunner runs one fleet configuration per iteration; only the seed (and
// the arrival schedules drawn from it) changes between iterations.
type fleetRunner struct {
	base    uint64
	cfg     npu.CoreConfig
	tenants []*trace.Workload
	specs   []workload.Spec // nil: the fleet draws its own Poisson arrivals
	opts    fleet.Options
}

func (f *fleetRunner) fixedIters() int { return 0 }

func (f *fleetRunner) shrink() {
	f.opts.DurationCycles /= 50
	if f.opts.Elastic != nil {
		e := *f.opts.Elastic
		e.IntervalCycles /= 50
		f.opts.Elastic = &e
	}
}

func (f *fleetRunner) run(i int, p *probe) (outcome, error) {
	seed := iterSeed(f.base, i)
	if i < 0 {
		seed = warmSeed(f.base, -1-i)
	}
	o := f.opts
	o.Seed = seed
	tenants := f.tenants
	if p != nil {
		tenants = p.tenants(f.tenants)
		o.CoreTracer = p.coreTracer
	}
	if f.specs != nil {
		var err error
		p.phase("workload.schedule", func() {
			eng := workload.Engine{Config: f.cfg, HorizonCycles: o.DurationCycles, Seed: seed}
			o.Arrivals, err = eng.Schedules(f.specs)
		})
		if err != nil {
			return outcome{}, err
		}
		if p != nil {
			for _, a := range o.Arrivals {
				p.scheduled += len(a)
			}
		}
	}
	var res *fleet.Result
	var err error
	p.fleetRun(func() { res, err = fleet.Run(tenants, o) })
	if err != nil {
		return outcome{}, err
	}
	out := outcome{work: float64(res.Completed), res: res}
	if res.Offered != res.Completed+res.Shed {
		out.problems = append(out.problems, fmt.Sprintf("seed %d: offered %d != completed %d + shed %d",
			seed, res.Offered, res.Completed, res.Shed))
	}
	return out, nil
}

// fleetDigest hashes a fleet result, including the per-core cycle-accurate
// measurements its JSON form omits.
func fleetDigest(res *fleet.Result) ([32]byte, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(res); err != nil {
		return [32]byte{}, fmt.Errorf("digest: %w", err)
	}
	for _, c := range res.Cores {
		if err := enc.Encode(c.Run); err != nil {
			return [32]byte{}, fmt.Errorf("digest: core %d: %w", c.Core, err)
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// fleetSteady: 8 cores, 16 tenants of the default model mix at batch 8,
// fleet-drawn Poisson arrivals at 60 Hz per tenant, advisor placement,
// V10-Full.
func fleetSteady(base uint64, p *probe) (runner, error) {
	cfg := npu.DefaultConfig()
	tenants, err := modelTenants(16, 8, cfg)
	if err != nil {
		return nil, err
	}
	model, err := trainAdvisor(p.tenants(tenants), cfg, p)
	if err != nil {
		return nil, err
	}
	return &fleetRunner{base: base, cfg: cfg, tenants: tenants, opts: fleet.Options{
		Config: cfg, Cores: 8, Scheme: "V10-Full", Policy: fleet.PolicyAdvisor, Model: model,
		RateHz: 60, DurationCycles: 1e9, Parallel: fleetParallel,
	}}, nil
}

// llmPrefillDecode: workload.PrefillDecodeMix with 16 tenants on 8 cores,
// anti-phased diurnal arrivals from the workload engine, advisor placement.
func llmPrefillDecode(base uint64, p *probe) (runner, error) {
	cfg := npu.DefaultConfig()
	mix := workload.PrefillDecodeMix(16, 60, cfg, 1)
	model, err := trainAdvisor(p.tenants(mix.Workloads), cfg, p)
	if err != nil {
		return nil, err
	}
	return &fleetRunner{base: base, cfg: cfg, tenants: mix.Workloads, specs: mix.Specs, opts: fleet.Options{
		Config: cfg, Cores: 8, Scheme: "V10-Full", Policy: fleet.PolicyAdvisor, Model: model,
		DurationCycles: 2e9, Parallel: fleetParallel,
	}}, nil
}

// elasticChurn: 12 tenants under MMPP bursts at 60 Hz on up to 6 cores
// autoscaled from a floor of 2, with 64 control ticks per horizon, predictive
// admission at a slowdown limit of 2.5 (as the elastic experiment uses, which
// lets the fleet scale back down and drain), and online re-clustering. The
// short horizon keeps the per-iteration control and placement work a large
// share of the iteration.
func elasticChurn(base uint64, p *probe) (runner, error) {
	cfg := npu.DefaultConfig()
	tenants, err := modelTenants(12, 8, cfg)
	if err != nil {
		return nil, err
	}
	model, err := trainAdvisor(p.tenants(tenants), cfg, p)
	if err != nil {
		return nil, err
	}
	specs := make([]workload.Spec, len(tenants))
	for i := range specs {
		specs[i] = workload.Spec{Process: workload.MMPP, RateHz: 60}
	}
	return &fleetRunner{base: base, cfg: cfg, tenants: tenants, specs: specs, opts: fleet.Options{
		Config: cfg, Cores: 6, Scheme: "V10-Full", Policy: fleet.PolicyAdvisor, Model: model,
		DurationCycles: 5e8, Parallel: fleetParallel,
		Elastic:   &ctlplane.Config{MinCores: 2, IntervalCycles: 5e8 / 64},
		Admission: fleet.AdmitPredictive, SlowdownLimit: 2.5, Recluster: true,
	}}, nil
}

// checkArm is one simcheck harness: a seeded generator and the checker that
// returns every oracle violation.
type checkArm struct {
	name  string
	gen   func(seed uint64) any
	check func(scenario any) []string
	// outputs runs the scenario again and returns its simulated outputs for
	// the digest. It is nil for the chaos, isolation and elastic arms, whose
	// fleet runs simcheck does not expose: their digest covers only which
	// trials ran and that they passed.
	outputs func(scenario any) any
}

func violationProblems(v *simcheck.Violation) []string {
	if v == nil {
		return nil
	}
	return v.Problems
}

func validatedCheck(sc *simcheck.Scenario) []string {
	if err := sc.Validate(); err != nil {
		return []string{"generator produced invalid scenario: " + err.Error()}
	}
	return violationProblems(simcheck.CheckScenario(sc))
}

// schemeRun is one scheme's simulated result in a check-sweep digest.
type schemeRun struct {
	Scheme string
	Result *metrics.RunResult
	Err    string
}

// schemeOutputs runs each scheme of a scenario once, untraced, through
// simcheck.Execute, the runner under CheckScenario's oracles.
func schemeOutputs(scenario any) any {
	sc := scenario.(*simcheck.Scenario)
	out := make([]schemeRun, len(sc.Schemes))
	for i, scheme := range sc.Schemes {
		res, err := simcheck.Execute(sc, scheme, false, nil)
		out[i] = schemeRun{Scheme: scheme, Result: res}
		if err != nil {
			out[i].Err = err.Error()
		}
	}
	return out
}

var checkArms = []checkArm{
	{"base",
		func(s uint64) any { return simcheck.GenScenario(s) },
		func(sc any) []string { return validatedCheck(sc.(*simcheck.Scenario)) },
		schemeOutputs},
	{"workload",
		func(s uint64) any { return simcheck.GenWorkloadScenario(s) },
		func(sc any) []string { return validatedCheck(sc.(*simcheck.Scenario)) },
		schemeOutputs},
	{"chaos",
		func(s uint64) any { return simcheck.GenChaosScenario(s) },
		func(sc any) []string { return simcheck.CheckChaosScenario(sc.(*simcheck.ChaosScenario)) },
		nil},
	{"isolation",
		func(s uint64) any { return simcheck.GenIsolationScenario(s) },
		func(sc any) []string { return simcheck.CheckIsolationScenario(sc.(*simcheck.IsolationScenario)) },
		nil},
	{"elastic",
		func(s uint64) any { return simcheck.GenElasticScenario(s) },
		func(sc any) []string { return simcheck.CheckElasticScenario(sc.(*simcheck.ElasticScenario)) },
		nil},
}

// trialDigest hashes a check-sweep trial: its arm and seed and, where the arm
// exposes them, its simulated outputs.
func trialDigest(t *trial) ([32]byte, error) {
	arm := checkArms[t.arm]
	h := sha256.New()
	fmt.Fprintf(h, "%s/%d\n", arm.name, t.seed)
	if arm.outputs != nil {
		if err := json.NewEncoder(h).Encode(arm.outputs(t.scenario)); err != nil {
			return [32]byte{}, fmt.Errorf("digest: %s seed %d: %w", arm.name, t.seed, err)
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// baseArmSeeds is the base arm's share of the corpus: seeds 0-249 of
// v10check's scheme trials, minus the six that each allocate over 1 GB (seed
// 126 alone peaks near 3 GB of RSS).
func baseArmSeeds() []uint64 {
	skip := map[uint64]bool{14: true, 80: true, 104: true, 120: true, 126: true, 228: true}
	var out []uint64
	for s := uint64(0); s < 250; s++ {
		if !skip[s] {
			out = append(out, s)
		}
	}
	return out
}

// armTrials is how many trials, at seeds 0 to armTrials-1, each of the four
// other arms runs.
const armTrials = 100

// trial is one corpus entry of the check sweep.
type trial struct {
	arm      int // index into checkArms
	seed     uint64
	scenario any
}

// checkCorpus lists the sweep's trials: the base arm's seeds and seeds 0 to
// perArm-1 of every other arm, the trials v10check's gates run. The set is
// fixed because trial cost is heavy-tailed and differs tenfold between arms
// (base-arm median 2 ms, mean 30 ms): drawing the trials from the run's seed
// moved the per-trial p50 and p90 by 8-13% between seeds with no change to
// the code. The run's seed shuffles each arm's order instead. The arms are
// interleaved by position, so that any prefix, such as the traced quarter,
// holds every arm in proportion.
func checkCorpus(base uint64, baseSeeds []uint64, perArm int) []trial {
	type keyed struct {
		t   trial
		key float64
	}
	rng := rand.New(rand.NewSource(int64(base)))
	var all []keyed
	add := func(arm int, seeds []uint64) {
		rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
		for j, s := range seeds {
			all = append(all, keyed{trial{arm: arm, seed: s}, (float64(j) + 0.5) / float64(len(seeds))})
		}
	}
	add(0, slices.Clone(baseSeeds))
	for a := 1; a < len(checkArms); a++ {
		seeds := make([]uint64, perArm)
		for j := range seeds {
			seeds[j] = uint64(j)
		}
		add(a, seeds)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].key < all[j].key })
	out := make([]trial, len(all))
	for i, k := range all {
		out[i] = k.t
	}
	return out
}

// checkRunner checks one pre-generated corpus trial per iteration.
type checkRunner struct {
	base   uint64
	corpus []trial
}

func (c *checkRunner) fixedIters() int { return len(c.corpus) }

// shrink keeps three cheap base-arm trials and two of every other arm.
func (c *checkRunner) shrink() { *c = *newCheckRunner(c.base, []uint64{1, 4, 5}, 2) }

func (c *checkRunner) run(i int, p *probe) (outcome, error) {
	if i < 0 {
		// Warm-up: the elastic arm at out-of-corpus seeds.
		arm := checkArms[len(checkArms)-1]
		arm.check(arm.gen(warmSeed(0, -1-i)))
		return outcome{work: 1}, nil
	}
	t := c.corpus[i]
	arm := checkArms[t.arm]
	sc := t.scenario
	if p != nil {
		// The traced pass times generation and checking separately.
		sc = p.simcheckGen(arm.name, func() any { return arm.gen(t.seed) })
	}
	problems := p.simcheckCheck(arm.name, func() []string { return arm.check(sc) })
	out := outcome{work: 1, trial: &trial{arm: t.arm, seed: t.seed, scenario: sc}}
	for _, pr := range problems {
		out.problems = append(out.problems, fmt.Sprintf("%s seed %d: %s", arm.name, t.seed, pr))
	}
	return out, nil
}

// checkSweep generates the corpus's scenarios in the run's order. The traced
// pass regenerates each trial's scenario to time generation per arm, so the
// set-up itself is not traced.
func checkSweep(base uint64, _ *probe) (runner, error) {
	return newCheckRunner(base, baseArmSeeds(), armTrials), nil
}

func newCheckRunner(base uint64, baseSeeds []uint64, perArm int) *checkRunner {
	corpus := checkCorpus(base, baseSeeds, perArm)
	for i := range corpus {
		corpus[i].scenario = checkArms[corpus[i].arm].gen(corpus[i].seed)
	}
	return &checkRunner{base: base, corpus: corpus}
}
