package simcheck

import (
	"errors"
	"fmt"

	"v10/internal/baseline"
	"v10/internal/metrics"
	"v10/internal/obs"
	"v10/internal/sched"
)

// EventLog is a Tracer that records the full event stream in memory, for the
// oracles (serial timing, determinism) and for Chrome-trace export of repros.
// It aliases obs.Log, which the fleet runner shares for per-core capture.
type EventLog = obs.Log

// Outcome is one scheme's run: its result, full event stream, and every
// invariant the Checker flagged.
type Outcome struct {
	Scheme   string
	Result   *metrics.RunResult
	Events   []obs.Event
	Problems []string
	Err      error
}

// Violation is a failed CheckScenario: the scenario plus every oracle and
// invariant message.
type Violation struct {
	Scenario *Scenario `json:"scenario"`
	Problems []string  `json:"problems"`
}

// RunScheme executes one scheme over the scenario with the invariant checker
// riding the tracer hook, recovering panics into problems. reversed flips the
// workload submission order (the permutation oracles' second run).
func RunScheme(sc *Scenario, scheme string, reversed bool) (out *Outcome) {
	out = &Outcome{Scheme: scheme}
	ck := NewChecker(sc, scheme, reversed)
	log := &EventLog{}

	defer func() {
		out.Events = log.Events
		if r := recover(); r != nil {
			out.Problems = append(out.Problems, fmt.Sprintf("panic: %v", r))
		}
	}()

	res, err := Execute(sc, scheme, reversed, obs.Multi(ck, log))
	out.Result = res
	out.Err = err
	if err != nil && !errors.Is(err, sched.ErrMaxCycles) {
		out.Problems = append(out.Problems, fmt.Sprintf("run error: %v", err))
	}
	out.Problems = append(out.Problems, ck.Finalize(res, err)...)
	return out
}

// Execute runs one scheme over the scenario with an arbitrary tracer and no
// checking — the raw substrate under RunScheme, also used by the mutation
// tests to wedge fault-injecting tracers between runner and checker.
func Execute(sc *Scenario, scheme string, reversed bool, tracer obs.Tracer) (*metrics.RunResult, error) {
	wls := buildWorkloads(sc.Workloads, reversed)
	if scheme == SchemePMT {
		policy := baseline.PMTRoundRobin
		if sc.PMTPrema {
			policy = baseline.PMTPrema
		}
		return baseline.RunPMT(wls, baseline.PMTOptions{
			Config:              sc.Config,
			Policy:              policy,
			Quantum:             sc.PMTQuantum,
			RequestsPerWorkload: sc.Requests,
			MaxCycles:           sc.MaxCycles,
			Seed:                sc.Seed,
			WeightByPriority:    sc.PMTWeighted,
			Tracer:              tracer,
		})
	}
	opts := sched.Options{
		Config:              sc.Config,
		RequestsPerWorkload: sc.Requests,
		MaxCycles:           sc.MaxCycles,
		PreemptMargin:       sc.PreemptMargin,
		VMemReloadFactor:    sc.VMemReloadFactor,
		DispatchLatency:     sc.DispatchLatency,
		ArrivalRateHz:       sc.ArrivalRateHz,
		ArrivalCycles:       sc.ArrivalCycles,
		Seed:                sc.Seed,
		Tracer:              tracer,
	}
	switch scheme {
	case SchemeBase:
		opts.Policy = sched.RoundRobin
	case SchemeFair:
		opts.Policy = sched.Priority
	case SchemeFull:
		opts.Policy = sched.Priority
		opts.Preemption = true
	default:
		return nil, fmt.Errorf("simcheck: unknown scheme %q", scheme)
	}
	return sched.Run(wls, opts)
}

// CheckScenario runs every scheme the scenario names through the invariant
// checker and the differential oracles, returning nil when all pass.
func CheckScenario(sc *Scenario) *Violation {
	var problems []string
	report := func(scheme string, msgs []string) {
		for _, m := range msgs {
			problems = append(problems, scheme+": "+m)
		}
	}

	outs := make([]*Outcome, len(sc.Schemes))
	for i, scheme := range sc.Schemes {
		out := RunScheme(sc, scheme, false)
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
	report(sc.Schemes[0], checkDeterminism(outs[0], RunScheme(sc, sc.Schemes[0], false)))

	// Permutation oracles: compare each scheme against a reversed-order run.
	// Clone sets get the exact oracle; heterogeneous equal-priority sets the
	// bounded one, but only in the closed loop (open-loop arrival streams are
	// seeded by run-order index, so reversing reassigns arrival patterns and
	// per-name latencies legitimately change). Skewed priorities
	// intentionally change per-order service and are excluded entirely.
	// Explicit schedules are bound to workload *positions*, so a reversed run
	// pairs each workload with a different schedule and per-name outcomes
	// legitimately change — skip the order-permutation oracles entirely.
	if len(sc.Workloads) >= 2 && sc.equalPriorities() && sc.ArrivalCycles == nil {
		for i, scheme := range sc.Schemes {
			rev := RunScheme(sc, scheme, true)
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
		for _, e := range RunScheme(sc, scheme, false).Events {
			cw.Emit(e)
		}
	}
	return cw.WriteFile(path)
}
