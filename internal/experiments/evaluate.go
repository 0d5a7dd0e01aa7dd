package experiments

import (
	"v10/internal/mathx"
	"v10/internal/report"
	"v10/internal/sched"
)

// Fig9 regenerates the PMT characterization: per-workload MXU and VPU
// utilization for 15 collocated pairs under preemptive multitasking.
func (c *Context) Fig9() (*report.Table, error) {
	t := &report.Table{
		ID:     "fig9",
		Title:  "NPU utilization with preemptive multi-tasking (PMT)",
		Note:   "per-workload breakdown; PMT time-shares, so utilizations average rather than add",
		Header: []string{"pair", "DNN1 MXU", "DNN2 MXU", "DNN1 VPU", "DNN2 VPU", "total MXU", "total VPU"},
	}
	for _, p := range Fig9Pairs {
		run, err := c.pair(p)
		if err != nil {
			return nil, err
		}
		pmt := run.pmt
		t.AddRow(PairLabel(p),
			report.Percent(pmt.WorkloadSAUtil(0)), report.Percent(pmt.WorkloadSAUtil(1)),
			report.Percent(pmt.WorkloadVUUtil(0)), report.Percent(pmt.WorkloadVUUtil(1)),
			report.Percent(pmt.SAUtil()), report.Percent(pmt.VUUtil()))
	}
	return t, nil
}

// schemeTable builds a pair×scheme table from a per-run metric.
func (c *Context) schemeTable(id, title, note string,
	metric func(run *pairRun, scheme int) float64,
	format func(float64) string) (*report.Table, error) {

	t := &report.Table{ID: id, Title: title, Note: note}
	t.Header = append([]string{"pair"}, sched.SchemeNames()...)
	for _, p := range EvalPairs {
		run, err := c.pair(p)
		if err != nil {
			return nil, err
		}
		row := []string{PairLabel(p)}
		for s := range run.schemes {
			row = append(row, format(metric(run, s)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig16a regenerates systolic array utilization per pair and scheme.
func (c *Context) Fig16a() (*report.Table, error) {
	return c.schemeTable("fig16a", "SA utilization when collocating two workloads", "",
		func(run *pairRun, s int) float64 { return run.schemes[s].SAUtil() },
		report.Percent)
}

// Fig16b regenerates vector unit utilization per pair and scheme.
func (c *Context) Fig16b() (*report.Table, error) {
	return c.schemeTable("fig16b", "VU utilization when collocating two workloads", "",
		func(run *pairRun, s int) float64 { return run.schemes[s].VUUtil() },
		report.Percent)
}

// Fig16c regenerates HBM bandwidth utilization per pair and scheme.
func (c *Context) Fig16c() (*report.Table, error) {
	return c.schemeTable("fig16c", "Memory bandwidth utilization", "",
		func(run *pairRun, s int) float64 { return run.schemes[s].HBMUtil() },
		report.Percent)
}

// Fig17 regenerates the execution-time breakdown: fraction of wall time with
// both SA and VU operators running, SA only, and VU only.
func (c *Context) Fig17() (*report.Table, error) {
	t := &report.Table{
		ID:    "fig17",
		Title: "Execution time breakdown of SA and VU operators",
		Note:  "per scheme: both / SA-only / VU-only fractions of wall time",
	}
	t.Header = []string{"pair"}
	for _, s := range sched.SchemeNames() {
		t.Header = append(t.Header, s+" both", s+" SA", s+" VU")
	}
	for _, p := range EvalPairs {
		run, err := c.pair(p)
		if err != nil {
			return nil, err
		}
		row := []string{PairLabel(p)}
		for _, res := range run.schemes {
			both, sa, vu := res.OverlapBreakdown()
			row = append(row, report.Percent(both), report.Percent(sa), report.Percent(vu))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig18 regenerates system throughput (STP) normalized to PMT.
func (c *Context) Fig18() (*report.Table, error) {
	return c.schemeTable("fig18",
		"Overall throughput (sum of normalized progress), normalized to PMT",
		"STP per Eyerman & Eeckhout; >1 means better than preemptive multitasking",
		func(run *pairRun, s int) float64 {
			pmtSTP := run.pmt.STP(run.rates)
			if pmtSTP == 0 {
				return 0
			}
			return run.schemes[s].STP(run.rates) / pmtSTP
		},
		report.FormatFloat)
}

// latencyTable builds Fig. 19/20-style per-workload latency tables
// (normalized to PMT; lower is better, paper plots the inverse ratio as
// "improvement").
func (c *Context) latencyTable(id, title string, lat func(run *pairRun, scheme, wl int) float64) (*report.Table, error) {
	t := &report.Table{ID: id, Title: title,
		Note: "normalized to PMT; <1 is better than PMT"}
	t.Header = []string{"pair"}
	for _, s := range sched.SchemeNames() {
		t.Header = append(t.Header, s+" DNN1", s+" DNN2")
	}
	for _, p := range EvalPairs {
		run, err := c.pair(p)
		if err != nil {
			return nil, err
		}
		row := []string{PairLabel(p)}
		for s := range run.schemes {
			for wl := 0; wl < 2; wl++ {
				base := lat(run, 0, wl)
				v := 0.0
				if base > 0 {
					v = lat(run, s, wl) / base
				}
				row = append(row, report.FormatFloat(v))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig19 regenerates average latency of collocated workloads.
func (c *Context) Fig19() (*report.Table, error) {
	return c.latencyTable("fig19", "Average latency of collocated DNN inference workloads",
		func(run *pairRun, s, wl int) float64 {
			return run.schemes[s].Workloads[wl].AvgLatency()
		})
}

// Fig20 regenerates 95th-percentile tail latency of collocated workloads.
func (c *Context) Fig20() (*report.Table, error) {
	return c.latencyTable("fig20", "95th-percentile tail latency of collocated DNN inference workloads",
		func(run *pairRun, s, wl int) float64 {
			return run.schemes[s].Workloads[wl].TailLatency(95)
		})
}

// Fig21 regenerates the preemption-overhead study: context-switch overhead
// (relative to useful cycles) and preemptions per request, PMT vs V10-Full.
func (c *Context) Fig21() (*report.Table, error) {
	t := &report.Table{
		ID:    "fig21",
		Title: "Context switch overhead and preemption counts",
		Note:  "overhead = switch cycles / total cycles; V10 preempts far more often at similar overhead",
		Header: []string{"pair", "workload",
			"PMT ovhd", "V10 ovhd", "PMT preempts/req", "V10 preempts/req"},
	}
	for _, p := range EvalPairs {
		run, err := c.pair(p)
		if err != nil {
			return nil, err
		}
		for wl := 0; wl < 2; wl++ {
			pmtW := run.pmt.Workloads[wl]
			fullW := run.full.Workloads[wl]
			pmtOvhd := mathx.Ratio(float64(pmtW.SwitchCycles), float64(run.pmt.TotalCycles), 0)
			fullOvhd := mathx.Ratio(float64(fullW.SwitchCycles), float64(run.full.TotalCycles), 0)
			pmtPre := float64(pmtW.Preemptions) / float64(mathx.MaxInt(pmtW.Requests, 1))
			fullPre := float64(fullW.Preemptions) / float64(mathx.MaxInt(fullW.Requests, 1))
			t.AddRow(PairLabel(p), pmtW.Name,
				report.Percent(pmtOvhd), report.Percent(fullOvhd),
				report.FormatFloat(pmtPre), report.FormatFloat(fullPre))
		}
	}
	return t, nil
}
