package experiments

import (
	"fmt"

	"v10/internal/report"
	"v10/internal/sched"
	"v10/internal/trace"
)

// Ext1 is an extension experiment: how much of V10's gain could a smarter
// task-level scheduler recover? It compares plain round-robin PMT, PREMA's
// token-based policy with SJF tiebreaks (the actual baseline system the
// paper cites), and V10-Full. The answer — PREMA helps latency fairness but
// cannot recover the throughput, because no task-level scheduler overlaps
// SA and VU execution — is the paper's O4 in table form.
func (c *Context) Ext1() (*report.Table, error) {
	t := &report.Table{
		ID:    "ext1",
		Title: "Task-level scheduling cannot close the gap: PMT-RR vs PMT-PREMA vs V10-Full (STP vs PMT-RR)",
		Note:  "each pair plus a short MNIST tenant (PREMA needs ≥3 tenants to differ from RR); no task-level policy overlaps SA and VU (O4)",
		Header: []string{"trio", "PMT-RR", "PMT-PREMA", "V10-Full",
			"PREMA MNST p95 vs RR"},
	}
	for _, p := range EvalPairs {
		mk := func() []*trace.Workload {
			return []*trace.Workload{
				c.workload(p[0]), c.workload(p[1]), c.workload("MNST"),
			}
		}
		rates, err := sched.SingleTenantRates(mk(), c.Config, c.Requests)
		if err != nil {
			return nil, fmt.Errorf("ext1 %s: %w", PairLabel(p), err)
		}
		rr, err := sched.Run(mk(), sched.Options{
			Config: c.Config, Policy: sched.PMT, RequestsPerWorkload: c.Requests, Seed: c.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("ext1 RR %s: %w", PairLabel(p), err)
		}
		prema, err := sched.Run(mk(), sched.Options{
			Config: c.Config, Policy: sched.PMTPrema, RequestsPerWorkload: c.Requests, Seed: c.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("ext1 PREMA %s: %w", PairLabel(p), err)
		}
		full, err := sched.Run(mk(), sched.Options{
			Config: c.Config, Policy: sched.PriorityPreempt, RequestsPerWorkload: c.Requests,
		})
		if err != nil {
			return nil, fmt.Errorf("ext1 V10 %s: %w", PairLabel(p), err)
		}
		rrSTP := rr.STP(rates)
		premaSTP, fullSTP := 0.0, 0.0
		if rrSTP > 0 {
			premaSTP = prema.STP(rates) / rrSTP
			fullSTP = full.STP(rates) / rrSTP
		}
		tailRatio := 0.0
		if t95 := rr.Workloads[2].TailLatency(95); t95 > 0 {
			tailRatio = prema.Workloads[2].TailLatency(95) / t95
		}
		t.AddRow(PairLabel(p)+"+MNST", 1.0, premaSTP, fullSTP, report.FormatFloat(tailRatio))
	}
	return t, nil
}

// Disc4 quantifies the paper's §4 discussion of the alternative
// software-based operator scheduler: the same V10-Full policy but with each
// scheduling decision made in host runtime (~20 µs exposed per dispatch)
// instead of in hardware (latency hidden). The paper argues the software
// overhead is "too large for most operators"; this experiment measures it.
func (c *Context) Disc4() (*report.Table, error) {
	t := &report.Table{
		ID:    "disc4",
		Title: "Hardware vs software operator scheduler (§4), throughput normalized to PMT",
		Note:  "software scheduling pays ~20 µs per dispatch; short-operator workloads collapse",
		Header: []string{"pair", "V10-Full (hw)", "V10-Full (sw)", "sw/hw",
			"sw dispatch overhead"},
	}
	for _, p := range EvalPairs {
		run, err := c.pair(p)
		if err != nil {
			return nil, err
		}
		stpPMT := run.pmt.STP(run.rates)
		sw, err := sched.Run([]*trace.Workload{c.workload(p[0]), c.workload(p[1])}, sched.Options{
			Config: c.Config, Policy: sched.PriorityPreempt, RequestsPerWorkload: c.Requests,
			DispatchLatency: sched.SoftwareDispatchLatency(c.Config),
		})
		if err != nil {
			return nil, fmt.Errorf("disc4 %s: %w", PairLabel(p), err)
		}
		hwSTP, swSTP := 0.0, 0.0
		if stpPMT > 0 {
			hwSTP = run.full.STP(run.rates) / stpPMT
			swSTP = sw.STP(run.rates) / stpPMT
		}
		var swOvhd int64
		for _, w := range sw.Workloads {
			swOvhd += w.SwitchCycles
		}
		ratio := 0.0
		if hwSTP > 0 {
			ratio = swSTP / hwSTP
		}
		t.AddRow(PairLabel(p),
			report.FormatFloat(hwSTP), report.FormatFloat(swSTP),
			report.FormatFloat(ratio),
			report.Percent(float64(swOvhd)/float64(sw.TotalCycles)))
	}
	return t, nil
}
