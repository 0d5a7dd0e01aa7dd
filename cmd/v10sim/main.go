// Command v10sim simulates a multi-tenant NPU scenario and prints the
// measured utilization, throughput, and latency for each scheme.
//
//	v10sim -workloads BERT:32,NCF:32                 # compare all schemes
//	v10sim -workloads BERT:32:0.8,DLRM:32:0.2        # with priorities
//	v10sim -workloads BERT:32,NCF:32 -scheme V10-Full -slice 4096
//	v10sim -workloads BERT:32 -record bert.trace.json # capture a trace
//	v10sim -traces bert.trace.json,ncf.trace.json     # replay traces
//	v10sim -scheme V10-Full -trace timeline.json      # Perfetto timeline
//	v10sim -counters counters.csv                     # counter snapshots
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	v10 "v10"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's testable body: parse flags, simulate, print each scheme's
// measurements on stdout. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("v10sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("workloads", "BERT:32,NCF:32",
		"comma-separated workloads as model:batch[:priority]")
	scheme := fs.String("scheme", "",
		"one of PMT, V10-Base, V10-Fair, V10-Full (default: compare all)")
	requests := fs.Int("requests", 8, "requests per workload")
	slice := fs.Int64("slice", 0, "scheduler time slice override in cycles")
	seed := fs.Uint64("seed", 1, "simulation seed")
	record := fs.String("record", "", "record the first workload's trace to this file and exit")
	traces := fs.String("traces", "", "comma-separated trace files to replay instead of -workloads")
	traceOut := fs.String("trace", "",
		"write a Chrome/Perfetto trace-event JSON timeline of the V10 runs to this file")
	countersOut := fs.String("counters", "",
		"write per-workload counter snapshots to this file (.json for JSON, else CSV)")
	counterInterval := fs.Int64("counter-interval", 0,
		"counter sampling interval in cycles (default 32x the time slice)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *requests < 1 {
		fmt.Fprintf(stderr, "v10sim: invalid -requests %d (want at least 1)\n", *requests)
		return 2
	}

	cfg := v10.DefaultConfig()
	var workloads []*v10.Workload
	var err error
	if *traces != "" {
		workloads, err = loadTraces(*traces)
	} else {
		workloads, err = parseWorkloads(*spec, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *record != "" {
		f := v10.RecordTrace(workloads[0], *requests)
		out, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer out.Close()
		if err := v10.WriteTrace(out, f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "recorded %d requests of %s to %s\n", *requests, workloads[0].Name, *record)
		return 0
	}
	opt := v10.Options{Config: cfg, Requests: *requests, TimeSlice: *slice, Seed: *seed,
		CounterInterval: *counterInterval}
	var tracer *v10.ChromeTrace
	if *traceOut != "" {
		tracer = v10.NewChromeTrace(cfg)
		opt.Tracer = tracer
	}
	if *countersOut != "" {
		opt.Counters = v10.NewCounterLog()
	}

	// One scheme, or the whole comparison with STP.
	results := map[string]*v10.Result{}
	var rates []float64
	if *scheme != "" {
		s, perr := v10.ParseScheme(*scheme)
		if perr != nil {
			fmt.Fprintln(stderr, perr)
			return 2
		}
		if tracer != nil {
			tracer.BeginSection(s.String())
		}
		if opt.Counters != nil {
			opt.Counters.BeginSection(s.String())
		}
		var res *v10.Result
		res, err = v10.Collocate(workloads, s, opt)
		if res != nil {
			results[s.String()] = res
		}
	} else {
		results, rates, err = v10.CompareSchemes(workloads, opt)
	}
	var optErr *v10.OptionsError
	if errors.As(err, &optErr) {
		fmt.Fprintln(stderr, "invalid options:", err)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		if len(results) == 0 {
			return 1
		}
		fmt.Fprintln(stderr, "reporting partial measurements up to the cycle cap:")
	}
	for s := v10.SchemePMT; s <= v10.SchemeV10Full; s++ {
		if res, ok := results[s.String()]; ok {
			printResult(stdout, res, rates)
			if *scheme == "" {
				fmt.Fprintln(stdout)
			}
		}
	}

	// Runs that time out still leave a timeline behind, which is exactly
	// when it is most needed.
	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d trace events to %s (open in ui.perfetto.dev)\n",
			tracer.Len(), *traceOut)
	}
	if opt.Counters != nil {
		if err := opt.Counters.WriteFile(*countersOut); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d counter rows to %s\n", opt.Counters.Len(), *countersOut)
	}
	if err != nil {
		return 1
	}
	return 0
}

func loadTraces(paths string) ([]*v10.Workload, error) {
	var out []*v10.Workload
	for _, p := range strings.Split(paths, ",") {
		f, err := os.Open(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		tf, err := v10.ReadTrace(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		w, err := tf.Workload()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, w)
	}
	return out, nil
}

func parseWorkloads(spec string, cfg v10.Config) ([]*v10.Workload, error) {
	var out []*v10.Workload
	for i, item := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("bad workload %q: want model:batch[:priority]", item)
		}
		batch, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad batch in %q: %v", item, err)
		}
		w, err := v10.NewWorkload(parts[0], batch, uint64(i+1), cfg)
		if err != nil {
			return nil, err
		}
		if len(parts) == 3 {
			prio, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("bad priority in %q: %v", item, err)
			}
			if !(prio > 0) || math.IsInf(prio, 0) {
				return nil, fmt.Errorf("bad priority in %q: must be positive and finite", item)
			}
			w = w.WithPriority(prio)
		}
		out = append(out, w)
	}
	return out, nil
}

func printResult(w io.Writer, res *v10.Result, rates []float64) {
	fmt.Fprintf(w, "=== %s ===\n", res.Scheme)
	fmt.Fprintf(w, "simulated %d cycles (%.2f ms of device time)\n",
		res.TotalCycles, float64(res.TotalCycles)/700e3)
	both, saOnly, vuOnly := res.OverlapBreakdown()
	fmt.Fprintf(w, "utilization: SA %.1f%%  VU %.1f%%  aggregate %.1f%%  HBM %.1f%%\n",
		100*res.SAUtil(), 100*res.VUUtil(), 100*res.AggregateUtil(), 100*res.HBMUtil())
	fmt.Fprintf(w, "overlap: both %.1f%%  SA-only %.1f%%  VU-only %.1f%%\n",
		100*both, 100*saOnly, 100*vuOnly)
	if rates != nil {
		fmt.Fprintf(w, "system throughput (STP): %.3f\n", res.STP(rates))
	}
	for _, ws := range res.Workloads {
		fmt.Fprintf(w, "  %-14s requests=%d  avg=%.2f ms  p95=%.2f ms  preempts=%d  switch=%.0f µs\n",
			ws.Name, ws.Requests,
			ws.AvgLatency()/700e3, ws.TailLatency(95)/700e3,
			ws.Preemptions, float64(ws.SwitchCycles)/700)
	}
}
