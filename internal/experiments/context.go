// Package experiments regenerates every table and figure of the paper's
// characterization (§2) and evaluation (§5) sections from the simulator.
// Each generator returns a report.Table whose rows mirror the paper's
// bars/series; DESIGN.md maps experiment IDs to generators, and
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"v10/internal/collocate"
	"v10/internal/metrics"
	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/parallel"
	"v10/internal/sched"
	"v10/internal/trace"
	"v10/internal/tune"
)

// Context carries shared configuration and memoizes simulation runs so that
// figures drawing on the same runs (e.g. Figs. 16–21) simulate them once.
// The memo caches are goroutine-safe with per-key in-flight deduplication,
// so generators and sweep cells may run concurrently: two figures needing
// the same pair wait on one simulation instead of racing to run it twice.
type Context struct {
	Config npu.CoreConfig
	// Requests per workload per collocated run. The paper runs to steady
	// state; a few requests per workload already show the shapes, and the
	// benches scale this up.
	Requests int
	// ProfileRequests per single-tenant characterization run (Figs. 3–8).
	ProfileRequests int
	Seed            uint64
	// Parallel bounds the worker goroutines for sweep fan-out (0 =
	// GOMAXPROCS, 1 = serial). Every simulation engine stays confined to one
	// goroutine and rows are assembled in sweep order, so tables are
	// bit-identical at any worker count.
	Parallel int

	// TraceDir, when set, attaches a Chrome trace writer to every V10 run of
	// every collocation pair and writes <pair>.trace.json files there — any
	// paper figure built on the pair runs can then be replayed as a Perfetto
	// timeline. Pair runs are memoized, so each pair traces exactly once.
	TraceDir string

	// CounterDir, when set, writes interval-sampled per-workload counter
	// snapshots for every pair as <pair>.counters.csv.
	CounterDir string

	// TunedKnobs overrides the committed v10tune policy in the tuned
	// experiment (nil = the built-in search winner).
	TunedKnobs *tune.Knobs

	profiles parallel.Memo[string, *metrics.RunResult]
	pairs    parallel.Memo[string, *pairRun]
	singles  parallel.Memo[string, *metrics.RunResult]
	advisors parallel.Memo[string, *collocate.Model]
}

// NewContext returns a Context with the paper's default configuration.
func NewContext() *Context {
	return &Context{
		Config:          npu.DefaultConfig(),
		Requests:        4,
		ProfileRequests: 3,
		Seed:            1,
	}
}

type pairRun struct {
	workloads []string
	schemes   []*metrics.RunResult // one run per sched.Schemes entry, in its order
	pmt, full *metrics.RunResult   // the PMT and V10-Full runs of schemes
	rates     []float64
}

// EvalPairs are the 11 collocation pairs of the evaluation figures
// (Figs. 16–24), in the paper's x-axis order.
var EvalPairs = [][2]string{
	{"BERT", "NCF"}, {"BERT", "RtNt"}, {"RsNt", "RtNt"}, {"NCF", "RsNt"},
	{"BERT", "TFMR"}, {"BERT", "DLRM"}, {"RNRS", "SMask"}, {"ENet", "RsNt"},
	{"MNST", "NCF"}, {"DLRM", "RsNt"}, {"RNRS", "MRCN"},
}

// Fig9Pairs are the 15 pairs of the Fig. 9 PMT characterization.
var Fig9Pairs = append(append([][2]string{}, EvalPairs...),
	[2]string{"MNST", "RNRS"}, [2]string{"BERT", "RsNt"},
	[2]string{"DLRM", "RtNt"}, [2]string{"DLRM", "NCF"},
)

// PairLabel renders a pair the way the paper labels its x-axes.
func PairLabel(p [2]string) string { return p[0] + "+" + p[1] }

// workload constructs the Table 4 instance (reference batch) of a model.
func (c *Context) workload(abbrev string) *trace.Workload {
	spec, ok := models.ByName(abbrev)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown model %q", abbrev))
	}
	seed := c.Seed
	for _, ch := range abbrev {
		seed = seed*131 + uint64(ch)
	}
	return spec.Workload(spec.RefBatch, seed, c.Config)
}

// batchWorkload constructs a model instance at an explicit batch size.
func (c *Context) batchWorkload(abbrev string, batch int) *trace.Workload {
	spec, ok := models.ByName(abbrev)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown model %q", abbrev))
	}
	seed := c.Seed + uint64(batch)*977
	for _, ch := range abbrev {
		seed = seed*131 + uint64(ch)
	}
	return spec.Workload(batch, seed, c.Config)
}

// profile memoizes the single-tenant characterization run of model@batch.
func (c *Context) profile(abbrev string, batch int) (*metrics.RunResult, error) {
	key := fmt.Sprintf("%s@%d", abbrev, batch)
	return c.profiles.Do(key, func() (*metrics.RunResult, error) {
		res, err := sched.RunSingle(c.batchWorkload(abbrev, batch), c.Config, c.ProfileRequests)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", key, err)
		}
		return res, nil
	})
}

// single memoizes a single-tenant run of a Table 4 instance.
func (c *Context) single(abbrev string) (*metrics.RunResult, error) {
	return c.singles.Do(abbrev, func() (*metrics.RunResult, error) {
		res, err := sched.RunSingle(c.workload(abbrev), c.Config, c.Requests)
		if err != nil {
			return nil, fmt.Errorf("single %s: %w", abbrev, err)
		}
		return res, nil
	})
}

// pair memoizes the four-scheme comparison of a collocation pair.
func (c *Context) pair(p [2]string) (*pairRun, error) {
	key := PairLabel(p)
	return c.pairs.Do(key, func() (*pairRun, error) {
		mk := func() []*trace.Workload {
			return []*trace.Workload{c.workload(p[0]), c.workload(p[1])}
		}
		run := &pairRun{workloads: []string{p[0], p[1]}}

		var err error
		if run.rates, err = c.singleRates(p); err != nil {
			return nil, err
		}
		var tracer *obs.ChromeWriter
		var counters *obs.CounterLog
		if c.TraceDir != "" {
			tracer = obs.NewChromeWriter(c.Config.CyclesPerMicrosecond())
		}
		if c.CounterDir != "" {
			counters = obs.NewCounterLog()
		}
		for _, policy := range sched.Schemes {
			opts := sched.Options{
				Config: c.Config, Policy: policy, RequestsPerWorkload: c.Requests, Seed: c.Seed,
			}
			// Trace and counter files cover the V10 designs only.
			if tracer != nil && policy != sched.PMT {
				tracer.BeginSection(policy.String())
				opts.Tracer = tracer
			}
			if counters != nil && policy != sched.PMT {
				counters.BeginSection(policy.String())
				opts.Counters = counters
			}
			res, err := sched.Run(mk(), opts)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", policy, key, err)
			}
			run.schemes = append(run.schemes, res)
			switch policy {
			case sched.PMT:
				run.pmt = res
			case sched.PriorityPreempt:
				run.full = res
			}
		}
		if tracer != nil {
			if err := writeDir(c.TraceDir, key+".trace.json", tracer.WriteFile); err != nil {
				return nil, err
			}
		}
		if counters != nil {
			if err := writeDir(c.CounterDir, key+".counters.csv", counters.WriteFile); err != nil {
				return nil, err
			}
		}
		return run, nil
	})
}

// writeDir ensures dir exists and hands write the joined path.
func writeDir(dir, name string, write func(path string) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return write(filepath.Join(dir, name))
}

// singleRates returns the pair's single-tenant progress rates, reusing the
// memoized single-tenant runs.
func (c *Context) singleRates(p [2]string) ([]float64, error) {
	rates := make([]float64, 2)
	for i, abbrev := range p {
		res, err := c.single(abbrev)
		if err != nil {
			return nil, err
		}
		rates[i] = res.ProgressRate(0)
	}
	return rates, nil
}
