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

func main() {
	out := flag.String("out", "results", "directory to write tables into")
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	requests := flag.Int("requests", 4, "requests per workload per collocated run")
	profileReqs := flag.Int("profile-requests", 3, "requests per single-tenant characterization run")
	seed := flag.Uint64("seed", 1, "simulation seed")
	quiet := flag.Bool("quiet", false, "suppress table output on stdout")
	bars := flag.Bool("bars", false, "render tables as ASCII bar charts on stdout")
	markdown := flag.Bool("markdown", false, "additionally write <id>.md files")
	par := flag.Int("parallel", 0, "simulation worker count (0 = GOMAXPROCS, 1 = serial)")
	traceDir := flag.String("trace", "",
		"write a Perfetto-loadable <pair>.trace.json timeline per collocation pair into this directory")
	counterDir := flag.String("counters", "",
		"write <pair>.counters.csv per-workload counter snapshots into this directory")
	tunedFlag := flag.String("tuned", "",
		"tuned-policy JSON the 'tuned' experiment compares against the defaults (default: the committed v10tune winner)")
	flag.Parse()

	if *list {
		for _, g := range experiments.Generators() {
			fmt.Printf("%-8s %s\n", g.ID, g.Name)
		}
		return
	}

	ctx := experiments.NewContext()
	ctx.Requests = *requests
	ctx.ProfileRequests = *profileReqs
	ctx.Seed = *seed
	ctx.Parallel = *par
	ctx.TraceDir = *traceDir
	ctx.CounterDir = *counterDir
	if *tunedFlag != "" {
		p, err := tune.LoadPolicy(*tunedFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ctx.TunedKnobs = &p.Knobs
	}

	gens, err := selectGenerators(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v; use -list\n", err)
		os.Exit(2)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Generators fan out across the worker pool too (the Context memo caches
	// dedupe the shared pair runs); tables come back in paper order.
	tables, err := parallel.Map(context.Background(), len(gens), *par,
		func(i int) (*report.Table, error) {
			tb, err := gens[i].Run(ctx)
			if err != nil {
				return nil, fmt.Errorf("experiment %s failed: %w", gens[i].ID, err)
			}
			return tb, nil
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	for i, g := range gens {
		tb := tables[i]
		if !*quiet {
			if *bars {
				fmt.Println(tb.Bars(50))
			} else {
				fmt.Println(tb.String())
			}
		}
		txt := filepath.Join(*out, g.ID+".txt")
		if err := os.WriteFile(txt, []byte(tb.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		csv := filepath.Join(*out, g.ID+".csv")
		if err := os.WriteFile(csv, []byte(tb.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *markdown {
			md := filepath.Join(*out, g.ID+".md")
			if err := os.WriteFile(md, []byte(tb.Markdown()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	// Headline summary (abstract-level claims) when running everything.
	if *only == "" {
		s, err := ctx.HeadlineSummary()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		summary := fmt.Sprintf(
			"V10-Full vs PMT geomeans over the 11 evaluation pairs (paper values in parens):\n"+
				"  NPU utilization:  %.2fx (1.64x)\n"+
				"  throughput (STP): %.2fx (1.57x)\n"+
				"  average latency:  %.2fx (1.56x)\n"+
				"  95%% tail latency: %.2fx (1.74x)\n",
			s.UtilizationX, s.ThroughputX, s.AvgLatencyX, s.TailLatencyX)
		fmt.Print(summary)
		if err := os.WriteFile(filepath.Join(*out, "summary.txt"), []byte(summary), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
