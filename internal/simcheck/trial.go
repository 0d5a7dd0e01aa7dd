package simcheck

import (
	"errors"
	"fmt"

	"v10/internal/metrics"
	"v10/internal/obs"
	"v10/internal/sched"
)

// Outcome is one scheme's run: its result, the digest of its event stream,
// and every invariant the Checker flagged. No run retains its events; relog
// re-executes the run into a full log for the determinism oracle's report.
type Outcome struct {
	Scheme   string
	Result   *metrics.RunResult
	Events   EventDigest
	Problems []string
	Err      error

	serial *serialTracer // nil unless the serial oracle applies
	relog  func() *obs.Log
}

// Violation is a failed CheckScenario: the scenario plus every oracle and
// invariant message.
type Violation struct {
	Scenario *Scenario `json:"scenario"`
	Problems []string  `json:"problems"`
}

// runScheme executes one scheme over the scenario with the invariant checker,
// the serial oracle and the determinism digest riding the tracer hook,
// recovering panics into problems. reversed flips the workload submission
// order (the permutation oracles' second run). wrap, when non-nil, sits
// between the runner and every oracle tracer (the mutation tests corrupt one
// determinism side with it).
func runScheme(sc *Scenario, scheme string, reversed bool, wrap func(obs.Tracer) obs.Tracer) (out *Outcome) {
	if wrap == nil {
		wrap = func(t obs.Tracer) obs.Tracer { return t }
	}
	out = &Outcome{Scheme: scheme}
	out.relog = func() *obs.Log {
		log := &obs.Log{}
		stream(sc, scheme, reversed, wrap(log))
		return log
	}
	ck := NewChecker(sc, scheme, reversed)
	sinks := []obs.Tracer{ck, &out.Events}
	if len(sc.Workloads) == 1 && sc.ArrivalRateHz <= 0 && sc.ArrivalCycles == nil { // one workload, closed loop
		out.serial = newSerialTracer(sc, scheme)
		sinks = append(sinks, out.serial)
	}

	defer func() {
		if r := recover(); r != nil {
			out.Problems = append(out.Problems, fmt.Sprintf("panic: %v", r))
		}
	}()

	res, err := Execute(sc, scheme, reversed, wrap(obs.Multi(sinks...)))
	out.Result = res
	out.Err = err
	if err != nil && !errors.Is(err, sched.ErrMaxCycles) {
		out.Problems = append(out.Problems, fmt.Sprintf("run error: %v", err))
	}
	out.Problems = append(out.Problems, ck.Finalize(res, err)...)
	return out
}

// stream executes one scheme's run into tracer alone, swallowing a panic:
// the event stream up to the panic is what the caller exports or compares.
func stream(sc *Scenario, scheme string, reversed bool, tracer obs.Tracer) {
	defer func() { _ = recover() }()
	_, _ = Execute(sc, scheme, reversed, tracer)
}

// Execute runs one scheme over the scenario with an arbitrary tracer and no
// checking — the raw substrate under runScheme, also used by the mutation
// tests to wedge fault-injecting tracers between runner and checker.
func Execute(sc *Scenario, scheme string, reversed bool, tracer obs.Tracer) (*metrics.RunResult, error) {
	opts, err := sc.options(scheme, tracer)
	if err != nil {
		return nil, err
	}
	return sched.Run(buildWorkloads(sc.Workloads, reversed), opts)
}

// options maps the scenario onto one scheme's scheduler options.
func (sc *Scenario) options(scheme string, tracer obs.Tracer) (sched.Options, error) {
	opts := sched.Options{
		Config:              sc.Config,
		RequestsPerWorkload: sc.Requests,
		MaxCycles:           sc.MaxCycles,
		ArrivalRateHz:       sc.ArrivalRateHz,
		ArrivalCycles:       sc.ArrivalCycles,
		Seed:                sc.Seed,
		Tracer:              tracer,
	}
	policy, err := sched.ParseScheme(scheme)
	if err != nil {
		return opts, err
	}
	opts.Policy = policy
	if policy == sched.PMT {
		// PMT switches whole cores, so the operator-level knobs stay off, and
		// it tiles at the default reload factor.
		if sc.PMTPrema {
			opts.Policy = sched.PMTPrema
		}
		opts.PMTQuantum = sc.PMTQuantum
		opts.PMTWeighted = sc.PMTWeighted
	} else {
		opts.PreemptMargin = sc.PreemptMargin
		opts.VMemReloadFactor = sc.VMemReloadFactor
		opts.DispatchLatency = sc.DispatchLatency
	}
	return opts, nil
}

// CheckScenario runs every scheme the scenario names through the invariant
// checker and the differential oracles, returning nil when all pass. Its
// independent runs fan out over parallel.Workers(0) goroutines.
func CheckScenario(sc *Scenario) *Violation {
	return checkScenario(sc, 0, nil)
}

// checkScenario is CheckScenario with at most width runs in flight (1 =
// strictly serial) and wrap, when non-nil, between every run's runner and
// its oracle tracers (the differential tests corrupt the streams with it).
func checkScenario(sc *Scenario, width int, wrap func(obs.Tracer) obs.Tracer) *Violation {
	var problems []string
	report := func(scheme string, msgs []string) {
		for _, m := range msgs {
			problems = append(problems, scheme+": "+m)
		}
	}

	// Every run is independent: each scheme forward, the first scheme again
	// for the determinism oracle, and, where the permutation oracles apply,
	// each scheme over the reversed workload order. Clone sets get the exact
	// oracle; heterogeneous equal-priority sets the bounded one, but only in
	// the closed loop (open-loop arrival streams are seeded by run-order
	// index, so reversing reassigns arrival patterns and per-name latencies
	// legitimately change). Skewed priorities intentionally change per-order
	// service and are excluded entirely. Explicit schedules are bound to
	// workload *positions*, so a reversed run pairs each workload with a
	// different schedule and per-name outcomes legitimately change — skip the
	// order-permutation oracles entirely.
	n := len(sc.Schemes)
	permute := len(sc.Workloads) >= 2 && sc.equalPriorities() && sc.ArrivalCycles == nil
	runs := make([]func() *Outcome, 0, 2*n+1)
	for _, scheme := range sc.Schemes {
		runs = append(runs, func() *Outcome { return runScheme(sc, scheme, false, wrap) })
	}
	runs = append(runs, func() *Outcome { return runScheme(sc, sc.Schemes[0], false, wrap) })
	if permute {
		for _, scheme := range sc.Schemes {
			runs = append(runs, func() *Outcome { return runScheme(sc, scheme, true, wrap) })
		}
	}
	run := fanOut(width, runs...)

	outs := make([]*Outcome, n)
	for i, scheme := range sc.Schemes {
		out := run(i)
		outs[i] = out
		report(scheme, out.Problems)
		if errors.Is(out.Err, sched.ErrMaxCycles) {
			report(scheme, []string{fmt.Sprintf(
				"livelock: exceeded the generous %d-cycle budget without serving every workload", sc.MaxCycles)})
		}
		report(scheme, checkSerial(sc, out))
		report(scheme, checkScheduleConformance(sc, out))
	}

	// Determinism: re-executing the first scheme must be bit-identical.
	report(sc.Schemes[0], checkDeterminism(outs[0], run(n)))

	// Permutation oracles: compare each scheme against its reversed run.
	if permute {
		for i, scheme := range sc.Schemes {
			rev := run(n + 1 + i)
			report(scheme+" (reversed)", rev.Problems)
			if sc.Clones {
				report(scheme, checkCloneSymmetry(outs[i], rev))
				if sc.ArrivalRateHz == 0 {
					// Open-loop clone completion times are dominated by each
					// clone's independent arrival draws, not by scheduling.
					report(scheme, checkCloneFairness(outs[i], cloneFairBound))
				}
			} else if sc.ArrivalRateHz == 0 {
				report(scheme, checkPermutationFair(sc, outs[i], rev, permLatencyBound, permMakespanBound))
			}
		}
	}

	if len(problems) == 0 {
		return nil
	}
	return &Violation{Scenario: sc, Problems: problems}
}

// Fairness-oracle bounds, validated over large seed sweeps with headroom (see
// TestTrialSweep). Tightening them is the easiest way to make the harness
// more sensitive — at the cost of false positives on degenerate mixes.
const (
	cloneFairBound    = 3.0
	permLatencyBound  = 4.0
	permMakespanBound = 2.0
)

// writeTimeline exports every scheme's run of sc as one Chrome/Perfetto
// trace, a section per scheme (the base and workload arms' Timeline).
func writeTimeline(sc *Scenario, path string) error {
	cw := obs.NewChromeWriter(sc.Config.CyclesPerMicrosecond())
	for _, scheme := range sc.Schemes {
		cw.BeginSection(scheme)
		stream(sc, scheme, false, cw)
	}
	return cw.WriteFile(path)
}
