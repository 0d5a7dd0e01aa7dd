package experiments

import (
	"context"
	"fmt"

	"v10/internal/mathx"
	"v10/internal/metrics"
	"v10/internal/models"
	"v10/internal/parallel"
	"v10/internal/report"
	"v10/internal/sched"
	"v10/internal/trace"
)

// The Fig. 22–25 sweeps are grids of independent simulations, so each one
// flattens its grid into cells, fans the cells out across c.Parallel workers
// (shared runs deduplicated by the Context memo caches), and assembles the
// rows in sweep order — the table is bit-identical to a serial run.

// PrioritySplits are the relative priority settings of Fig. 22 (DNN1 share).
var PrioritySplits = []float64{0.5, 0.6, 0.7, 0.8, 0.9}

// Fig22a regenerates per-workload performance (normalized to ideal
// single-tenant) under varying priorities, for V10-Full and PMT.
func (c *Context) Fig22a() (*report.Table, error) {
	t := &report.Table{
		ID:    "fig22a",
		Title: "Performance of collocated workloads vs ideal under priorities (DNN1 prioritized)",
		Note:  "per split: V10-Full DNN1/DNN2 then PMT DNN1/DNN2, normalized progress vs single-tenant",
	}
	t.Header = []string{"pair", "split"}
	t.Header = append(t.Header, "V10 DNN1", "V10 DNN2", "PMT DNN1", "PMT DNN2")
	rows, err := parallel.Map(context.Background(), len(EvalPairs)*len(PrioritySplits), c.Parallel,
		func(i int) ([]string, error) {
			p := EvalPairs[i/len(PrioritySplits)]
			split := PrioritySplits[i%len(PrioritySplits)]
			rates, err := c.singleRates(p)
			if err != nil {
				return nil, err
			}
			full, pmt, err := c.priorityRun(p, split)
			if err != nil {
				return nil, err
			}
			nf := full.NormalizedProgress(rates)
			np := pmt.NormalizedProgress(rates)
			return []string{
				PairLabel(p), splitLabel(split),
				report.FormatFloat(nf[0]), report.FormatFloat(nf[1]),
				report.FormatFloat(np[0]), report.FormatFloat(np[1]),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

func splitLabel(split float64) string {
	return fmt.Sprintf("%.0f%%-%.0f%%", split*100, (1-split)*100)
}

// Fig22b regenerates overall throughput of V10-Full under each priority
// split, normalized to PMT at the same split.
func (c *Context) Fig22b() (*report.Table, error) {
	t := &report.Table{
		ID:    "fig22b",
		Title: "Throughput of V10-Full with various priority settings (w.r.t. PMT)",
	}
	t.Header = []string{"pair"}
	for _, split := range PrioritySplits {
		t.Header = append(t.Header, splitLabel(split))
	}
	cells, err := parallel.Map(context.Background(), len(EvalPairs)*len(PrioritySplits), c.Parallel,
		func(i int) (string, error) {
			p := EvalPairs[i/len(PrioritySplits)]
			split := PrioritySplits[i%len(PrioritySplits)]
			rates, err := c.singleRates(p)
			if err != nil {
				return "", err
			}
			full, pmt, err := c.priorityRun(p, split)
			if err != nil {
				return "", err
			}
			return report.FormatFloat(mathx.Ratio(full.STP(rates), pmt.STP(rates), 0)), nil
		})
	if err != nil {
		return nil, err
	}
	for pi, p := range EvalPairs {
		row := append([]string{PairLabel(p)}, cells[pi*len(PrioritySplits):(pi+1)*len(PrioritySplits)]...)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// priorityRun simulates a pair at a priority split under V10-Full and PMT.
func (c *Context) priorityRun(p [2]string, split float64) (full, pmt *metrics.RunResult, err error) {
	mk := func() []*trace.Workload {
		return []*trace.Workload{
			c.workload(p[0]).WithPriority(split),
			c.workload(p[1]).WithPriority(1 - split),
		}
	}
	fullRes, err := sched.Run(mk(), sched.Options{
		Config: c.Config, Policy: sched.PriorityPreempt, RequestsPerWorkload: c.Requests,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fig22 V10 %s@%v: %w", PairLabel(p), split, err)
	}
	pmtRes, err := sched.Run(mk(), sched.Options{
		Config: c.Config, Policy: sched.PMT, PMTWeighted: true,
		RequestsPerWorkload: c.Requests, Seed: c.Seed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fig22 PMT %s@%v: %w", PairLabel(p), split, err)
	}
	return fullRes, pmtRes, nil
}

// TimeSlices is the Fig. 23 scheduler-time-slice sweep, in cycles.
var TimeSlices = []int64{512, 1024, 4096, 32768, 65536, 1048576}

// Fig23 regenerates throughput of V10-Full under various scheduler time
// slices, normalized to PMT.
func (c *Context) Fig23() (*report.Table, error) {
	t := &report.Table{
		ID:    "fig23",
		Title: "Throughput of V10-Full with various scheduler time slices (normalized to PMT)",
		Note:  "32768 cycles (~46 µs) balances preemption overhead and scheduling granularity",
	}
	t.Header = []string{"pair"}
	for _, s := range TimeSlices {
		t.Header = append(t.Header, fmt.Sprintf("%d", s))
	}
	cells, err := parallel.Map(context.Background(), len(EvalPairs)*len(TimeSlices), c.Parallel,
		func(i int) (string, error) {
			p := EvalPairs[i/len(TimeSlices)]
			slice := TimeSlices[i%len(TimeSlices)]
			run, err := c.pair(p)
			if err != nil {
				return "", err
			}
			cfg := c.Config
			cfg.TimeSlice = slice
			res, err := sched.Run([]*trace.Workload{c.workload(p[0]), c.workload(p[1])}, sched.Options{
				Config: cfg, Policy: sched.PriorityPreempt, RequestsPerWorkload: c.Requests,
			})
			if err != nil {
				return "", fmt.Errorf("fig23 %s@%d: %w", PairLabel(p), slice, err)
			}
			return report.FormatFloat(mathx.Ratio(res.STP(run.rates), run.pmt.STP(run.rates), 0)), nil
		})
	if err != nil {
		return nil, err
	}
	for pi, p := range EvalPairs {
		row := append([]string{PairLabel(p)}, cells[pi*len(TimeSlices):(pi+1)*len(TimeSlices)]...)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// VMemCapacities is the Fig. 24 vector-memory sweep, in bytes.
var VMemCapacities = []int64{8 << 20, 16 << 20, 24 << 20, 32 << 20, 48 << 20, 64 << 20}

// Fig24 regenerates throughput of V10-Full over PMT and V10-Full's HBM
// bandwidth utilization under various vector memory capacities.
func (c *Context) Fig24() (*report.Table, error) {
	t := &report.Table{
		ID:    "fig24",
		Title: "Throughput of V10-Full over PMT and HBM BW utilization vs vector memory capacity",
		Note:  "small vmem partitions force operator tiling, raising HBM traffic",
	}
	t.Header = []string{"pair"}
	for _, v := range VMemCapacities {
		mb := v >> 20
		t.Header = append(t.Header, fmt.Sprintf("%dMB tput", mb), fmt.Sprintf("%dMB hbm", mb))
	}
	cells, err := parallel.Map(context.Background(), len(EvalPairs)*len(VMemCapacities), c.Parallel,
		func(i int) ([2]string, error) {
			p := EvalPairs[i/len(VMemCapacities)]
			vmem := VMemCapacities[i%len(VMemCapacities)]
			rates, err := c.singleRates(p)
			if err != nil {
				return [2]string{}, err
			}
			cfg := c.Config
			cfg.VMemBytes = vmem
			mk := func() []*trace.Workload {
				return []*trace.Workload{c.workload(p[0]), c.workload(p[1])}
			}
			pmt, err := sched.Run(mk(), sched.Options{
				Config: cfg, Policy: sched.PMT, RequestsPerWorkload: c.Requests, Seed: c.Seed,
			})
			if err != nil {
				return [2]string{}, fmt.Errorf("fig24 PMT %s@%d: %w", PairLabel(p), vmem, err)
			}
			full, err := sched.Run(mk(), sched.Options{
				Config: cfg, Policy: sched.PriorityPreempt, RequestsPerWorkload: c.Requests,
			})
			if err != nil {
				return [2]string{}, fmt.Errorf("fig24 V10 %s@%d: %w", PairLabel(p), vmem, err)
			}
			ratio := mathx.Ratio(full.STP(rates), pmt.STP(rates), 0)
			return [2]string{report.FormatFloat(ratio), report.Percent(full.HBMUtil())}, nil
		})
	if err != nil {
		return nil, err
	}
	for pi, p := range EvalPairs {
		row := []string{PairLabel(p)}
		for vi := range VMemCapacities {
			cell := cells[pi*len(VMemCapacities)+vi]
			row = append(row, cell[0], cell[1])
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// ScaleFUs and ScaleWorkloads define the Fig. 25 scalability grid.
var (
	ScaleFUs       = []int{1, 2, 4, 8}
	ScaleWorkloads = []int{2, 4, 6, 8, 12, 16, 24, 32}
)

// Fig25 regenerates V10 scalability: throughput over single-tenant execution
// as the number of SAs/VUs and collocated workloads grows. Workloads are
// picked randomly from the 11 models, and HBM bandwidth scales with the FU
// count (§5.9). Each grid cell seeds its own RNG, so cells are independent
// and the grid parallelizes without changing any cell's draw.
func (c *Context) Fig25() (*report.Table, error) {
	t := &report.Table{
		ID:    "fig25",
		Title: "V10 scalability with more FUs and collocated workloads (STP over single-tenant)",
		Note:  "throughput grows linearly until workloads ≈ FUs",
	}
	t.Header = []string{"(#SA,#VU)"}
	for _, m := range ScaleWorkloads {
		t.Header = append(t.Header, fmt.Sprintf("%dw", m))
	}
	specs := models.Specs()
	cells, err := parallel.Map(context.Background(), len(ScaleFUs)*len(ScaleWorkloads), c.Parallel,
		func(i int) (string, error) {
			n := ScaleFUs[i/len(ScaleWorkloads)]
			m := ScaleWorkloads[i%len(ScaleWorkloads)]
			cfg := c.Config.WithFUs(n)
			rng := mathx.NewRNG(c.Seed*1000 + uint64(n*100+m))
			var ws []*trace.Workload
			var rates []float64
			for w := 0; w < m; w++ {
				spec := specs[rng.Intn(len(specs))]
				ws = append(ws, spec.Workload(spec.RefBatch, rng.Uint64(), c.Config))
				single, err := c.single(spec.Abbrev)
				if err != nil {
					return "", err
				}
				rates = append(rates, single.ProgressRate(0))
			}
			res, err := sched.Run(ws, sched.Options{
				Config: cfg, Policy: sched.PriorityPreempt,
				RequestsPerWorkload: mathx.MaxInt(2, c.Requests/2),
			})
			if err != nil {
				return "", fmt.Errorf("fig25 (%d,%d)x%d: %w", n, n, m, err)
			}
			return report.FormatFloat(res.STP(rates)), nil
		})
	if err != nil {
		return nil, err
	}
	for ni, n := range ScaleFUs {
		row := append([]string{fmt.Sprintf("(%d,%d)", n, n)},
			cells[ni*len(ScaleWorkloads):(ni+1)*len(ScaleWorkloads)]...)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
