package experiments

import (
	"fmt"

	"v10/internal/mathx"
	"v10/internal/report"
)

// Generator produces one paper artifact.
type Generator struct {
	ID   string
	Name string
	Run  func(*Context) (*report.Table, error)
}

// Generators returns every table/figure generator in paper order.
func Generators() []Generator {
	return []Generator{
		{"table1", "Average operator lengths", (*Context).Table1},
		{"table2", "Collocation prediction accuracy", (*Context).Table2},
		{"table3", "Scheduler overhead", (*Context).Table3},
		{"table4", "Evaluated models", (*Context).Table4},
		{"table5", "Simulator configuration", (*Context).Table5},
		{"fig3", "FLOPS utilization", (*Context).Fig3},
		{"fig4", "MXU temporal utilization", (*Context).Fig4},
		{"fig5", "VPU temporal utilization", (*Context).Fig5},
		{"fig6", "Ideal operator-parallel speedup", (*Context).Fig6},
		{"fig7", "HBM bandwidth utilization", (*Context).Fig7},
		{"fig8", "Roofline", (*Context).Fig8},
		{"fig9", "PMT collocation utilization", (*Context).Fig9},
		{"fig15", "Workload clustering", (*Context).Fig15},
		{"fig16a", "SA utilization (collocated)", (*Context).Fig16a},
		{"fig16b", "VU utilization (collocated)", (*Context).Fig16b},
		{"fig16c", "HBM BW utilization (collocated)", (*Context).Fig16c},
		{"fig17", "Execution overlap breakdown", (*Context).Fig17},
		{"fig18", "Throughput vs PMT", (*Context).Fig18},
		{"fig19", "Average latency", (*Context).Fig19},
		{"fig20", "95th-percentile tail latency", (*Context).Fig20},
		{"fig21", "Preemption overhead", (*Context).Fig21},
		{"fig22a", "Priority sweep: per-workload", (*Context).Fig22a},
		{"fig22b", "Priority sweep: throughput", (*Context).Fig22b},
		{"fig23", "Time-slice sweep", (*Context).Fig23},
		{"fig24", "Vector-memory sweep", (*Context).Fig24},
		{"fig25", "Scalability", (*Context).Fig25},
		{"disc4", "Hardware vs software scheduler (§4)", (*Context).Disc4},
		{"ext1", "Task-level scheduling gap (PREMA)", (*Context).Ext1},
		{"calib", "Workload-zoo calibration report", (*Context).Calib},
		{"fleet", "Fleet placement-policy sweep", (*Context).Fleet},
		{"faults", "Fleet resilience under injected core failures", (*Context).Faults},
		{"workload", "Workload-engine traffic sweep (bursty + prefill/decode)", (*Context).WorkloadSweep},
		{"elastic", "Elastic control plane: autoscaling vs static provisioning", (*Context).Elastic},
		{"tuned", "Tuned policy vs default knobs (v10tune search winner)", (*Context).Tuned},
	}
}

// ByID returns the generator for an experiment ID.
func ByID(id string) (Generator, bool) {
	for _, g := range Generators() {
		if g.ID == id {
			return g, true
		}
	}
	return Generator{}, false
}

// Summary computes the paper's headline geomean improvements of V10-Full
// over PMT across the evaluation pairs: aggregate utilization, throughput,
// average latency, and tail latency.
type Summary struct {
	UtilizationX float64 // paper: 1.64×
	ThroughputX  float64 // paper: 1.57×
	AvgLatencyX  float64 // paper: 1.56× (reduction)
	TailLatencyX float64 // paper: 1.74× (reduction)
}

// HeadlineSummary measures the four abstract-level claims. Pairs whose PMT
// run degenerates (zero utilization, throughput, or latency) are excluded
// from the corresponding geomean; if a whole category ends up empty the
// summary is meaningless and an explicit error is returned rather than a
// silent 0× (or NaN) headline.
func (c *Context) HeadlineSummary() (Summary, error) {
	var utils, tputs, avgs, tails []float64
	for _, p := range EvalPairs {
		run, err := c.pair(p)
		if err != nil {
			return Summary{}, err
		}
		if u := run.pmt.AggregateUtil(); u > 0 {
			utils = append(utils, run.full.AggregateUtil()/u)
		}
		if s := run.pmt.STP(run.rates); s > 0 {
			tputs = append(tputs, run.full.STP(run.rates)/s)
		}
		for wl := 0; wl < 2; wl++ {
			if l := run.full.Workloads[wl].AvgLatency(); l > 0 {
				avgs = append(avgs, run.pmt.Workloads[wl].AvgLatency()/l)
			}
			if l := run.full.Workloads[wl].TailLatency(95); l > 0 {
				tails = append(tails, run.pmt.Workloads[wl].TailLatency(95)/l)
			}
		}
	}
	for name, xs := range map[string][]float64{
		"utilization": utils, "throughput": tputs,
		"average latency": avgs, "tail latency": tails,
	} {
		if len(xs) == 0 {
			return Summary{}, fmt.Errorf("experiments: no valid %s samples across the evaluation pairs", name)
		}
	}
	return Summary{
		UtilizationX: geomean(utils),
		ThroughputX:  geomean(tputs),
		AvgLatencyX:  geomean(avgs),
		TailLatencyX: geomean(tails),
	}, nil
}

func geomean(xs []float64) float64 { return mathx.GeoMean(xs) }
