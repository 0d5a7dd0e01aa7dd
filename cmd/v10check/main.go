// Command v10check is the simulation-testing gate: it runs N seed-addressed
// random trials of one simcheck arm — base (every scheduling scheme under the
// runtime invariant checker and the differential oracles), workload (explicit
// arrival schedules), chaos (fleet fault injection), isolation (vNPU noisy
// neighbors) or elastic (the autoscaling control plane). On the first
// violation it minimizes the scenario, writes a {"kind", "seed", "scenario",
// "problems"} repro plus, for the base and workload arms, an optional Chrome
// trace of the failing run, then exits 1.
//
//	v10check                                  # 500 base trials from seed 0
//	v10check -trials 2000 -seed 100           # wider sweep, custom base seed
//	v10check -arm chaos -trials 200           # fleet chaos trials under fault injection
//	v10check -out repro.json -trace fail.json # artifacts on first violation
//	v10check -replay repro.json               # re-run a saved repro of any arm
//	v10check -v                               # per-trial progress
//
// -replay takes the arm from the repro's kind, so -arm does not apply to it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"v10/internal/parallel"
	"v10/internal/simcheck"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's testable body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("v10check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	armName := fs.String("arm", "base", "harness to sweep: base, workload, chaos, isolation or elastic")
	trials := fs.Int("trials", 500, "number of random trials")
	seed := fs.Uint64("seed", 0, "base seed (trial i uses seed+i)")
	out := fs.String("out", "repro.json", "minimized repro file written on violation")
	tracePath := fs.String("trace", "", "Chrome trace of the first failing run (open in Perfetto; base and workload arms)")
	replay := fs.String("replay", "", "re-check a saved repro instead of random trials")
	minimizeBudget := fs.Int("minimize", 200, "max re-checks spent minimizing a failure (0 disables)")
	par := fs.Int("parallel", 0, "trial worker count (0 = GOMAXPROCS, 1 = serial)")
	verbose := fs.Bool("v", false, "log every trial")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trials < 0 {
		fmt.Fprintf(stderr, "v10check: invalid -trials %d (trial count must be non-negative)\n", *trials)
		return 2
	}

	var arm *simcheck.Arm
	var fail *simcheck.Repro
	var err error
	if *replay != "" {
		if arm, fail, err = simcheck.ReadRepro(*replay); err != nil {
			fmt.Fprintln(stderr, "v10check:", err)
			return 1
		}
	} else if arm, err = simcheck.FindArm(*armName); err != nil {
		fmt.Fprintln(stderr, "v10check:", err)
		return 2
	}
	if *tracePath != "" && arm.Timeline == nil {
		fmt.Fprintf(stderr, "v10check: -trace: the %s arm has no timeline export\n", arm.Name)
		return 2
	}

	if *replay != "" {
		if fail.Problems = arm.Check(fail.Scenario); len(fail.Problems) == 0 {
			fmt.Fprintf(stdout, "repro %s: %s arm clean\n", *replay, arm.Name)
			return 0
		}
		*minimizeBudget = 0 // replays are already minimal
	} else {
		var progress io.Writer
		if *verbose {
			progress = stdout
		}
		if fail = sweep(arm, *trials, *seed, *par, progress); fail == nil {
			fmt.Fprintf(stdout, "v10check: %d %strials from seed %d, zero violations\n", *trials, kindPrefix(arm), *seed)
			return 0
		}
	}
	if err := report(stderr, arm, fail, *out, *tracePath, *minimizeBudget); err != nil {
		fmt.Fprintln(stderr, "v10check:", err)
	}
	return 1
}

// kindPrefix qualifies sweep messages ("chaos trials"); the base arm's are
// unqualified ("trials").
func kindPrefix(a *simcheck.Arm) string {
	if a.Name == "base" {
		return ""
	}
	return a.Name + " "
}

// sweep runs trial seeds seed..seed+trials-1 of the arm on par workers,
// batch by batch, logging each trial to progress unless it is nil, and
// returns the failure with the smallest seed (nil when clean). Batching keeps the first-failure semantics deterministic — every
// worker finishes its batch before failures are scanned in seed order — so
// a parallel sweep reports the same repro as a serial one.
func sweep(a *simcheck.Arm, trials int, seed uint64, par int, progress io.Writer) *simcheck.Repro {
	batch := 8 * parallel.Workers(par)
	for lo := 0; lo < trials; lo += batch {
		hi := lo + batch
		if hi > trials {
			hi = trials
		}
		// Progress is logged from this goroutine, in seed order, so the
		// workers never share it.
		for i := lo; progress != nil && i < hi; i++ {
			fmt.Fprintf(progress, "%strial %d/%d seed %d\n", kindPrefix(a), i+1, trials, seed+uint64(i))
		}
		rs, _ := parallel.Map(context.Background(), hi-lo, par, func(i int) (*simcheck.Repro, error) {
			return a.Trial(seed + uint64(lo+i)), nil
		})
		for _, r := range rs {
			if r != nil {
				return r
			}
		}
	}
	return nil
}

// report minimizes a failure, prints every problem, and writes the repro and
// the optional Chrome trace.
func report(stderr io.Writer, a *simcheck.Arm, r *simcheck.Repro, out, tracePath string, minimizeBudget int) error {
	fmt.Fprintf(stderr, "%s seed %d violated %d invariant(s)\n", a.Name, r.Seed, len(r.Problems))
	if minimizeBudget > 0 {
		if sc, problems := a.Minimize(r.Scenario, minimizeBudget); len(problems) > 0 {
			r.Scenario, r.Problems = sc, problems
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(stderr, "  - %s\n", p)
	}
	if out != "" {
		if err := simcheck.WriteRepro(out, r); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "repro written to %s (replay with -replay %s)\n", out, out)
	}
	if tracePath != "" {
		if err := a.Timeline(r.Scenario, tracePath); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "timeline written to %s\n", tracePath)
	}
	return nil
}
