// Command v10bench regenerates every table and figure of the paper from the
// simulator and writes them under a results directory as aligned text and
// CSV. Run with -list to see experiment IDs, or -only to regenerate a subset.
//
//	v10bench -out results               # everything (takes a minute or two)
//	v10bench -only fig18,fig21          # just those
//	v10bench -requests 8                # longer steady-state runs
//	v10bench -parallel 1                # force the serial path
//
// Experiments run on a bounded worker pool (GOMAXPROCS workers by default;
// -parallel overrides). Each discrete-event simulation stays on one
// goroutine and shared runs are deduplicated, so the emitted tables are
// bit-identical at any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"v10/internal/experiments"
	"v10/internal/parallel"
	"v10/internal/report"
	"v10/internal/tune"
)

// selectGenerators resolves the -only flag: empty means every generator, else
// a comma-separated ID list in the order given.
func selectGenerators(only string) ([]experiments.Generator, error) {
	if only == "" {
		return experiments.Generators(), nil
	}
	var gens []experiments.Generator
	for _, id := range strings.Split(only, ",") {
		g, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		gens = append(gens, g)
	}
	return gens, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's testable body: parse flags, run the selected generators,
// write their tables. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	ctx := experiments.NewContext()
	fs := flag.NewFlagSet("v10bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "results", "directory to write tables into")
	only := fs.String("only", "", "comma-separated experiment IDs (default: all)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	fs.IntVar(&ctx.Requests, "requests", ctx.Requests, "requests per workload per collocated run")
	fs.IntVar(&ctx.ProfileRequests, "profile-requests", ctx.ProfileRequests,
		"requests per single-tenant characterization run")
	fs.Uint64Var(&ctx.Seed, "seed", ctx.Seed, "simulation seed")
	quiet := fs.Bool("quiet", false, "suppress table output on stdout")
	bars := fs.Bool("bars", false, "render tables as ASCII bar charts on stdout")
	markdown := fs.Bool("markdown", false, "additionally write <id>.md files")
	fs.IntVar(&ctx.Parallel, "parallel", ctx.Parallel, "simulation worker count (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&ctx.TraceDir, "trace", ctx.TraceDir,
		"write a Perfetto-loadable <pair>.trace.json timeline per collocation pair into this directory")
	fs.StringVar(&ctx.CounterDir, "counters", ctx.CounterDir,
		"write <pair>.counters.csv per-workload counter snapshots into this directory")
	tunedFlag := fs.String("tuned", "",
		"tuned-policy JSON the 'tuned' experiment compares against the defaults (default: the committed v10tune winner)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, c := range []struct {
		name     string
		val, min int
	}{{"requests", ctx.Requests, 1}, {"profile-requests", ctx.ProfileRequests, 1}, {"parallel", ctx.Parallel, 0}} {
		if c.val < c.min {
			fmt.Fprintf(stderr, "v10bench: invalid -%s %d (want at least %d)\n", c.name, c.val, c.min)
			return 2
		}
	}

	if *list {
		for _, g := range experiments.Generators() {
			fmt.Fprintf(stdout, "%-8s %s\n", g.ID, g.Name)
		}
		return 0
	}
	if *tunedFlag != "" {
		p, err := tune.LoadPolicy(*tunedFlag)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		ctx.TunedKnobs = &p.Knobs
	}

	gens, err := selectGenerators(*only)
	if err != nil {
		fmt.Fprintf(stderr, "%v; use -list\n", err)
		return 2
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// Generators fan out across the worker pool too (the Context memo caches
	// dedupe the shared pair runs); tables come back in paper order.
	tables, err := parallel.Map(context.Background(), len(gens), ctx.Parallel,
		func(i int) (*report.Table, error) {
			tb, err := gens[i].Run(ctx)
			if err != nil {
				return nil, fmt.Errorf("experiment %s failed: %w", gens[i].ID, err)
			}
			return tb, nil
		})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	write := func(name, body string) bool {
		if err := os.WriteFile(filepath.Join(*out, name), []byte(body), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return false
		}
		return true
	}
	for i, g := range gens {
		tb := tables[i]
		if !*quiet {
			if *bars {
				fmt.Fprintln(stdout, tb.Bars(50))
			} else {
				fmt.Fprintln(stdout, tb.String())
			}
		}
		if !write(g.ID+".txt", tb.String()) || !write(g.ID+".csv", tb.CSV()) ||
			(*markdown && !write(g.ID+".md", tb.Markdown())) {
			return 1
		}
	}

	// Headline summary (abstract-level claims) when running everything.
	if *only == "" {
		s, err := ctx.HeadlineSummary()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		summary := fmt.Sprintf(
			"V10-Full vs PMT geomeans over the 11 evaluation pairs (paper values in parens):\n"+
				"  NPU utilization:  %.2fx (1.64x)\n"+
				"  throughput (STP): %.2fx (1.57x)\n"+
				"  average latency:  %.2fx (1.56x)\n"+
				"  95%% tail latency: %.2fx (1.74x)\n",
			s.UtilizationX, s.ThroughputX, s.AvgLatencyX, s.TailLatencyX)
		fmt.Fprint(stdout, summary)
		if !write("summary.txt", summary) {
			return 1
		}
	}
	return 0
}
