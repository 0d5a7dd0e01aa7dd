// Command v10check is the differential simulation-testing gate: it runs N
// seed-addressed random trials through every scheduling scheme with the
// runtime invariant checker attached, cross-checks the differential oracles
// (serial equivalence, permutation fairness, determinism), and on the first
// violation writes a minimized JSON repro plus an optional Chrome trace of
// the failing run, then exits 1.
//
//	v10check                                  # 500 trials from seed 0
//	v10check -trials 2000 -seed 100           # wider sweep, custom base seed
//	v10check -out repro.json -trace fail.json # artifacts on first violation
//	v10check -replay repro.json               # re-run a saved repro
//	v10check -chaos 200                       # fleet chaos trials under fault injection
//	v10check -workload 200                    # workload-engine arrival-schedule trials
//	v10check -isolation 200                   # vNPU noisy-neighbor isolation trials
//	v10check -elastic 200                     # autoscaling control-plane trials
//	v10check -v                               # per-trial progress
//
// -chaos, -workload, -isolation, -elastic and -replay each select a mode;
// at most one may be given.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"v10/internal/obs"
	"v10/internal/parallel"
	"v10/internal/simcheck"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's testable body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("v10check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trials := fs.Int("trials", 500, "number of random trials")
	seed := fs.Uint64("seed", 0, "base seed (trial i uses seed+i)")
	out := fs.String("out", "repro.json", "minimized repro file written on violation")
	tracePath := fs.String("trace", "", "Chrome trace of the first failing run (open in Perfetto)")
	replay := fs.String("replay", "", "re-check a saved repro instead of random trials")
	chaos := fs.Int("chaos", 0, "run this many fleet chaos trials (fault injection) instead of scheme trials")
	workloadTrials := fs.Int("workload", 0, "run this many workload-engine trials (explicit arrival schedules) instead of scheme trials")
	isolation := fs.Int("isolation", 0, "run this many vNPU noisy-neighbor isolation trials instead of scheme trials")
	elastic := fs.Int("elastic", 0, "run this many autoscaling control-plane trials instead of scheme trials")
	minimizeBudget := fs.Int("minimize", 200, "max re-checks spent minimizing a failure (0 disables)")
	par := fs.Int("parallel", 0, "trial worker count (0 = GOMAXPROCS, 1 = serial)")
	verbose := fs.Bool("v", false, "log every trial")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var modes []string
	for _, c := range []struct {
		flag string
		n    int
	}{{"trials", *trials}, {"chaos", *chaos}, {"workload", *workloadTrials}, {"isolation", *isolation}, {"elastic", *elastic}} {
		if c.n < 0 {
			fmt.Fprintf(stderr, "v10check: invalid -%s %d (trial count must be non-negative)\n", c.flag, c.n)
			return 2
		}
		if c.n > 0 && c.flag != "trials" {
			modes = append(modes, "-"+c.flag)
		}
	}
	if *replay != "" {
		modes = append(modes, "-replay")
	}
	if len(modes) > 1 {
		fmt.Fprintf(stderr, "v10check: %s cannot be combined; choose one mode\n", strings.Join(modes, " and "))
		return 2
	}

	o := sweepOpts{seed: *seed, par: *par, verbose: *verbose, stdout: stdout, stderr: stderr}
	// reportScheme handles a scheme-level violation (base and workload arms):
	// its repro is the minimized Scenario, replayable with -replay.
	reportScheme := func(kind string) func(*simcheck.Violation) error {
		return func(v *simcheck.Violation) error {
			fmt.Fprintf(stderr, "%sseed %d violated %d invariant(s)\n", kind, v.Scenario.Seed, len(v.Problems))
			return report(stderr, v.Scenario, v, *out, *tracePath, *minimizeBudget)
		}
	}
	switch {
	case *chaos > 0:
		return arm(o, "chaos ", *chaos, simcheck.RunChaosTrial, func(v *simcheck.ChaosViolation) error {
			return writeRepro(stderr, "chaos", fmt.Sprintf("seed %d", v.Scenario.Seed), v.Problems, v, *out)
		})
	case *isolation > 0:
		return arm(o, "isolation ", *isolation, simcheck.RunIsolationTrial, func(v *simcheck.IsolationViolation) error {
			what := fmt.Sprintf("seed %d (%s aggressor)", v.Scenario.Seed, v.Scenario.Aggressor)
			return writeRepro(stderr, "isolation", what, v.Problems, v, *out)
		})
	case *elastic > 0:
		return arm(o, "elastic ", *elastic, simcheck.RunElasticTrial, func(v *simcheck.ElasticViolation) error {
			return writeRepro(stderr, "elastic", fmt.Sprintf("seed %d", v.Scenario.Seed), v.Problems, v, *out)
		})
	case *workloadTrials > 0:
		return arm(o, "workload ", *workloadTrials, simcheck.RunWorkloadTrial, reportScheme("workload "))
	case *replay != "":
		sc, err := simcheck.ReadScenario(*replay)
		if err != nil {
			fmt.Fprintln(stderr, "v10check:", err)
			return 1
		}
		if v := simcheck.CheckScenario(sc); v != nil {
			// Replays are already minimal.
			if err := report(stderr, sc, v, *out, *tracePath, 0); err != nil {
				fmt.Fprintln(stderr, "v10check:", err)
			}
			return 1
		}
		fmt.Fprintf(stdout, "repro %s: all schemes clean\n", *replay)
		return 0
	default:
		return arm(o, "", *trials, simcheck.RunTrial, reportScheme(""))
	}
}

// sweepOpts are the flags every trial arm shares.
type sweepOpts struct {
	seed           uint64
	par            int
	verbose        bool
	stdout, stderr io.Writer
}

// arm sweeps one harness's trials and returns the exit code. kind prefixes
// its messages ("chaos ", or "" for the base arm); fail prints the first
// violation and writes its repro.
func arm[V any](o sweepOpts, kind string, trials int, run func(uint64) *V, fail func(*V) error) int {
	v := sweep(o, trials, kind+"trial", run)
	if v == nil {
		fmt.Fprintf(o.stdout, "v10check: %d %strials from seed %d, zero violations\n", trials, kind, o.seed)
		return 0
	}
	if err := fail(v); err != nil {
		fmt.Fprintln(o.stderr, "v10check:", err)
	}
	return 1
}

// sweep runs trial seeds seed..seed+trials-1 through run on a worker pool,
// batch by batch, and returns the violation with the smallest seed (nil when
// clean). Batching keeps the first-failure semantics deterministic — every
// worker finishes its batch before violations are scanned in seed order — so
// a parallel sweep reports the same repro as a serial one.
func sweep[V any](o sweepOpts, trials int, label string, run func(uint64) *V) *V {
	batch := 8 * parallel.Workers(o.par)
	for lo := 0; lo < trials; lo += batch {
		hi := lo + batch
		if hi > trials {
			hi = trials
		}
		// Progress is logged from this goroutine, in seed order, so the
		// workers never share o.stdout.
		for i := lo; o.verbose && i < hi; i++ {
			fmt.Fprintf(o.stdout, "%s %d/%d seed %d\n", label, i+1, trials, o.seed+uint64(i))
		}
		vs, _ := parallel.Map(context.Background(), hi-lo, o.par, func(i int) (*V, error) {
			return run(o.seed + uint64(lo+i)), nil
		})
		for _, v := range vs {
			if v != nil {
				return v
			}
		}
	}
	return nil
}

// writeRepro reports a fleet-level violation (chaos, isolation, elastic): it
// prints "<kind> <what> violated N invariant(s)" and the problems, then, when
// out is set, writes v — a {"scenario": …, "problems": …} envelope — to out.
func writeRepro(stderr io.Writer, kind, what string, problems []string, v any, out string) error {
	fmt.Fprintf(stderr, "%s %s violated %d invariant(s)\n", kind, what, len(problems))
	for _, p := range problems {
		fmt.Fprintf(stderr, "  - %s\n", p)
	}
	if out == "" {
		return nil
	}
	j, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(j, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s repro written to %s\n", kind, out)
	return nil
}

// report minimizes a scheme-level failure, prints every problem, and writes
// the repro and optional Chrome trace.
func report(stderr io.Writer, sc *simcheck.Scenario, v *simcheck.Violation, out, tracePath string, minimizeBudget int) error {
	if minimizeBudget > 0 {
		if min, mv := simcheck.Minimize(sc, minimizeBudget); mv != nil {
			sc, v = min, mv
		}
	}
	for _, p := range v.Problems {
		fmt.Fprintf(stderr, "  - %s\n", p)
	}
	if out != "" {
		if err := sc.WriteFile(out); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "repro written to %s (replay with -replay %s)\n", out, out)
	}
	if tracePath != "" {
		cw := obs.NewChromeWriter(sc.Config.CyclesPerMicrosecond())
		for _, scheme := range sc.Schemes {
			cw.BeginSection(scheme)
			run := simcheck.RunScheme(sc, scheme, false)
			for _, e := range run.Events {
				cw.Emit(e)
			}
		}
		if err := cw.WriteFile(tracePath); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "timeline written to %s\n", tracePath)
	}
	return nil
}
