package main

import (
	"math"

	"v10/internal/mathx"
	"v10/internal/obs"
)

// metricDef is one registered metric. End-to-end metrics come from the
// untraced pass and carry a regression bound; per-layer metrics come from the
// traced pass. BENCHMARK.json lists exactly these (a test pins the match).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening as a share of the median
	layer  bool
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound}
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, layer: true}
}

// tailPct is the tail percentile iter_p90_ms reports. A run may state a
// percentile only with ten samples beyond it (see percentileOK); the shortest
// runs, fleet-steady's at -seconds 20, time 110-150 iterations, enough for
// p90 but not for p95, and minTimed keeps every run at 100 or more.
const tailPct = 90

// The end-to-end bounds are twice the largest spread (interquartile range
// over median, ten seeds) any workload showed in the README's noise table,
// rounded up to a whole percent. setup_s, whose spread the harness does not
// bound, takes the largest bound allowed.
var registry = func() []metricDef {
	defs := []metricDef{
		e2e("setup_s", "s", "lower", 0.25),
		e2e("work_per_s", "work/s", "higher", 0.14),
		e2e("iter_p50_ms", "ms", "lower", 0.15),
		e2e("iter_p90_ms", "ms", "lower", 0.17),
		e2e("alloc_kb_per_work", "KB", "lower", 0.06),

		layer("synth.calls", "calls/iter", "lower"),
		layer("synth.kcalls_per_s", "kcalls/s", "higher"),
		layer("synth.busy_pct", "%", "lower"),
		layer("synth.setup_pct", "%", "lower"),
		layer("workload.arrivals", "arrivals/iter", "lower"),
		layer("workload.karrivals_per_s", "karrivals/s", "higher"),
		layer("workload.iter_pct", "%", "lower"),
		layer("collocate.pair_sims", "count", "lower"),
		layer("collocate.sims_per_s", "sims/s", "higher"),
		layer("collocate.setup_pct", "%", "lower"),
		layer("fleet.frontend_pct", "%", "lower"),
		layer("fleet.cores_pct", "%", "lower"),
		layer("fleet.aggregate_pct", "%", "lower"),
		layer("fleet.parallel_eff", "ratio", "higher"),
		layer("fleet.offered", "req/iter", "higher"),
		layer("fleet.admitted", "req/iter", "higher"),
		layer("fleet.shed", "req/iter", "lower"),
		layer("fleet.spilled", "req/iter", "lower"),
		layer("sched.ops", "ops/iter", "lower"),
		layer("sched.ops_per_request", "ops/req", "lower"),
		layer("sched.kops_per_s", "kops/s", "higher"),
		layer("sched.preemptions", "count/iter", "lower"),
		layer("sim.hbm_rebalances", "count/iter", "lower"),
		layer("sim.rebalances_per_op", "ratio", "lower"),
		layer("ctlplane.scale_ups", "count/iter", "lower"),
		layer("ctlplane.scale_downs", "count/iter", "lower"),
		layer("ctlplane.drain_victims", "req/iter", "lower"),
		layer("ctlplane.readmitted", "req/iter", "higher"),
		layer("ctlplane.reclusters", "count/iter", "lower"),
	}
	for _, a := range checkArms {
		pre := "simcheck." + a.name + "."
		defs = append(defs,
			layer(pre+"trials", "count", "higher"),
			layer(pre+"trials_per_s", "trials/s", "higher"),
			layer(pre+"gen_pct", "%", "lower"),
			layer(pre+"alloc_mb_per_trial", "MB", "lower"),
			layer(pre+"violations", "count", "lower"),
		)
	}
	return append(defs,
		layer("model.goodput_hz", "req/sim-s", "higher"),
		layer("model.worst_p99_kcycles", "kcycles", "lower"),
		layer("model.shed_ratio", "ratio", "lower"),
		layer("model.fairness", "ratio", "higher"),
		layer("proc.peak_rss_mb", "MB", "lower"),
		layer("proc.gc_cycles", "count/iter", "lower"),
		layer("proc.gc_pause_pct", "%", "lower"),
		layer("proc.mallocs_per_work", "count", "lower"),
		layer("bench.iterations", "count", "higher"),
		layer("bench.host_slowdown", "ratio", "lower"),
		layer("bench.trace_overhead_pct", "%", "lower"),
	)
}()

// unitOf returns a registered metric's unit.
func unitOf(name string) string {
	for _, d := range registry {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// percentileOK reports whether n samples leave at least ten beyond the p-th
// percentile.
func percentileOK(n int, p float64) bool {
	beyond := math.Floor(float64(n)*(100-p)/100 + 1e-9)
	return beyond >= 10
}

func median(xs []float64) float64 { return mathx.Percentile(xs, 50) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 { return mathx.Ratio(a, b, 0) }

// layerInputs is everything the traced pass measured.
type layerInputs struct {
	iters    int
	spans    []span
	probe    *probe
	outcomes []outcome
	// Reference (untraced) pass over the same iterations.
	refNs, tracedNs     int64
	gcCycles, gcPauseNs uint64
	mallocs             uint64
	refWork             float64
	peakRSSMB           float64
	slowdown            float64 // host slowdown over the pass; see hostClock
}

// layerMetrics derives every per-layer metric from the traced pass. Layers a
// workload does not exercise read 0.
func layerMetrics(in layerInputs) map[string]float64 {
	m := map[string]float64{}
	n := float64(in.iters)

	// Span totals (ns) and counts by name; set-up spans are keyed
	// "setup:<name>". Synthesis on the cores' goroutines is the part of the
	// core spans the scheduler did not spend.
	tot, cnt := map[string]float64{}, map[string]float64{}
	var coresSynth float64
	for _, s := range in.spans {
		key := s.Name
		if s.Iter < 0 {
			key = "setup:" + key
		}
		tot[key] += float64(s.End - s.Start)
		cnt[key]++
		if s.Iter >= 0 && s.Name == "synth" && s.Parent >= 0 && in.spans[s.Parent].Name == "fleet.cores" {
			coresSynth += float64(s.End - s.Start)
		}
	}
	iterNs := tot["iter"]
	// Host CPU time of the iterations: their wall time with the parallel
	// cores phase counted per core.
	busyNs := iterNs - tot["fleet.cores"] + tot["core"]
	pct := func(part, whole float64) float64 { return 100 * ratio(part, whole) }

	m["synth.calls"] = cnt["synth"] / n
	// Throughputs are per second of host time divided by the host slowdown,
	// like the end-to-end times.
	perS := func(count, ns float64) float64 { return ratio(count, ns/1e9/in.slowdown) }
	m["synth.kcalls_per_s"] = perS(cnt["synth"], tot["synth"]) / 1e3
	m["synth.busy_pct"] = pct(tot["synth"], busyNs)
	m["synth.setup_pct"] = pct(tot["setup:synth"], tot["setup:setup"])

	m["workload.arrivals"] = float64(in.probe.scheduled) / n
	m["workload.karrivals_per_s"] = perS(float64(in.probe.scheduled), tot["workload.schedule"]) / 1e3
	m["workload.iter_pct"] = pct(tot["workload.schedule"], iterNs)

	m["collocate.pair_sims"] = cnt["setup:collocate.pair_sim"]
	m["collocate.sims_per_s"] = perS(cnt["setup:collocate.pair_sim"], tot["setup:collocate.train"])
	m["collocate.setup_pct"] = pct(tot["setup:collocate.train"], tot["setup:setup"])

	m["fleet.frontend_pct"] = pct(tot["fleet.frontend"], iterNs)
	m["fleet.cores_pct"] = pct(tot["fleet.cores"], iterNs)
	m["fleet.aggregate_pct"] = pct(tot["fleet.aggregate"], iterNs)
	m["fleet.parallel_eff"] = ratio(tot["core"], tot["fleet.cores"]*fleetParallel)

	var offered, admitted, shed, spilled, completed, ops, preempt float64
	var ups, downs, victims, readmitted, reclusters float64
	var goodput, fairness float64
	var worstP99s []float64
	for _, o := range in.outcomes {
		r := o.res
		if r == nil {
			continue
		}
		offered += float64(r.Offered)
		admitted += float64(r.Admitted)
		shed += float64(r.Shed)
		completed += float64(r.Completed)
		goodput += r.GoodputHz
		worst := 0.0
		var goodShares []float64
		for _, ts := range r.Tenants {
			spilled += float64(ts.Spilled)
			worst = max(worst, ts.P99LatencyCycles)
			if ts.Offered > 0 {
				goodShares = append(goodShares, float64(ts.Good)/float64(ts.Offered))
			}
		}
		worstP99s = append(worstP99s, worst)
		fairness += mathx.JainFairness(goodShares)
		for _, c := range r.Cores {
			if c.Run == nil {
				continue
			}
			for _, w := range c.Run.Workloads {
				ops += float64(w.ProgressOps)
				preempt += float64(w.Preemptions)
			}
		}
		if ctl := r.Control; ctl != nil {
			ups += float64(ctl.ScaleUps)
			downs += float64(ctl.ScaleDowns)
			victims += float64(ctl.DrainVictims)
			readmitted += float64(ctl.Readmitted)
			reclusters += float64(ctl.Reclusters)
		}
	}
	m["fleet.offered"] = offered / n
	m["fleet.admitted"] = admitted / n
	m["fleet.shed"] = shed / n
	m["fleet.spilled"] = spilled / n

	ev := func(t obs.EventType) float64 { return float64(in.probe.events[t]) }
	m["sched.ops"] = ops / n
	m["sched.ops_per_request"] = ratio(ops, completed)
	m["sched.kops_per_s"] = perS(ops, tot["core"]-coresSynth) / 1e3
	m["sched.preemptions"] = preempt / n
	m["sim.hbm_rebalances"] = ev(obs.EvHBMRebalance) / n
	m["sim.rebalances_per_op"] = ratio(ev(obs.EvHBMRebalance), ops)

	m["ctlplane.scale_ups"] = ups / n
	m["ctlplane.scale_downs"] = downs / n
	m["ctlplane.drain_victims"] = victims / n
	m["ctlplane.readmitted"] = readmitted / n
	m["ctlplane.reclusters"] = reclusters / n

	for _, a := range checkArms {
		pre := "simcheck." + a.name + "."
		trials := cnt[pre+"check"]
		gen, check := tot[pre+"gen"], tot[pre+"check"]
		m[pre+"trials"] = trials
		m[pre+"trials_per_s"] = perS(trials, check)
		m[pre+"gen_pct"] = pct(gen, gen+check)
		m[pre+"alloc_mb_per_trial"] = ratio(float64(in.probe.armAlloc[a.name]), trials) / (1 << 20)
		m[pre+"violations"] = float64(in.probe.armFails[a.name])
	}

	// Simulated outputs: mean goodput, the median over iterations of the
	// worst tenant's p99, the shed share of all offered requests, and the mean
	// Jain index over tenants of good/offered.
	fleetIters := float64(len(worstP99s))
	m["model.goodput_hz"] = ratio(goodput, fleetIters)
	m["model.worst_p99_kcycles"] = median(worstP99s) / 1e3
	m["model.shed_ratio"] = ratio(shed, offered)
	m["model.fairness"] = ratio(fairness, fleetIters)

	m["proc.peak_rss_mb"] = in.peakRSSMB
	m["proc.gc_cycles"] = float64(in.gcCycles) / n
	m["proc.gc_pause_pct"] = pct(float64(in.gcPauseNs), float64(in.refNs))
	m["proc.mallocs_per_work"] = ratio(float64(in.mallocs), in.refWork)
	m["bench.iterations"] = n
	m["bench.host_slowdown"] = in.slowdown
	m["bench.trace_overhead_pct"] = 100 * (ratio(float64(in.tracedNs), float64(in.refNs)) - 1)
	return m
}
