// Command v10perf is the repository's benchmark: it measures the simulator's
// host-side cost on four workloads, end to end with tracing off and layer by
// layer in a separate traced pass, and checks that every simulated output is
// correct and deterministic.
//
//	v10perf                                  # all workloads, both passes
//	v10perf -workload fleet-steady -seed 3   # one workload
//	v10perf -workload check-sweep -trace 0   # end-to-end metrics only
//	v10perf -trace 1 -spans spans.jsonl      # per-layer metrics, spans written out
//	v10perf -json report.json                # full report with host info and digests
//
// A benchmark harness runs it as
// "v10perf --workload W --seed N --seconds 20 --trace 0" (or --trace 1).
//
// Each workload runs in its own child process with GOMAXPROCS=2, closed-loop
// with a single client: iteration i+1 starts when iteration i returns. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit status is 0 only when every
// iteration was correct.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// childProcs is GOMAXPROCS in every measuring child, whatever the host's
// CPU count, so that runs compare across hosts.
const childProcs = 2

// runSeconds is the untraced pass's default measuring time: BENCHMARK.json's
// run_seconds, at which the bounds were measured (a test pins the match).
const runSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's testable body; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("v10perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "input seed (same seed, same inputs)")
	seconds := fs.Float64("seconds", runSeconds, "measuring time of the untraced pass, in seconds")
	traceMode := fs.Int("trace", -1, "1: traced pass only (per-layer metrics), 0: untraced pass only (end-to-end metrics), -1: both")
	jsonOut := fs.String("json", "", "write the full report (host info, digests, metrics, spans) to this file")
	spansOut := fs.String("spans", "", "write the traced pass's spans, one JSON object per line, to this file")
	child := fs.Bool("child", false, "measure in this process (used by the parent process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "v10perf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *traceMode < -1 || *traceMode > 1 {
		fmt.Fprintf(stderr, "v10perf: -trace must be 0, 1 or -1, got %d\n", *traceMode)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "v10perf: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	if *spansOut != "" && *traceMode == 0 {
		fmt.Fprintln(stderr, "v10perf: -spans needs the traced pass (-trace 1 or -1)")
		return 2
	}
	var defs []workloadDef
	if *name == "all" {
		defs = workloads
	} else if d, ok := findWorkload(*name); ok {
		defs = []workloadDef{d}
	} else {
		fmt.Fprintf(stderr, "v10perf: unknown workload %q (want %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	s := settings{seed: *seed, seconds: *seconds, e2e: *traceMode != 1, traced: *traceMode != 0, spans: *spansOut}

	if *child {
		s.def = defs[0]
		rep, err := measure(s)
		if err != nil {
			fmt.Fprintln(stderr, "v10perf:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "v10perf:", err)
			return 1
		}
		return 0
	}

	// An interrupted or terminated parent kills its child before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var reps []*report
	for _, d := range defs {
		s.def = d
		if *spansOut != "" && len(defs) > 1 {
			ext := filepath.Ext(*spansOut)
			s.spans = strings.TrimSuffix(*spansOut, ext) + "." + d.name + ext
		}
		rep, err := runChild(ctx, s, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "v10perf: %s: %v\n", d.name, err)
			return 1
		}
		printReport(stdout, rep)
		reps = append(reps, rep)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, reps); err != nil {
			fmt.Fprintln(stderr, "v10perf:", err)
			return 1
		}
	}
	res := summarize(reps)
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "v10perf:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runChild measures one workload in a child process of this executable with
// GOMAXPROCS fixed, and waits for it to exit.
func runChild(ctx context.Context, s settings, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := -1
	if !s.e2e {
		trace = 1
	} else if !s.traced {
		trace = 0
	}
	args := []string{"-child", "-workload", s.def.name, "-seed", fmt.Sprint(s.seed),
		"-seconds", fmt.Sprint(s.seconds), "-trace", fmt.Sprint(trace)}
	if s.spans != "" {
		args = append(args, "-spans", s.spans)
	}
	// Generous: a run measures for -seconds per pass plus set-ups; a child
	// still running well past that is hung. At -seconds 20 the limit stays
	// under three minutes.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(3*s.seconds+100)*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return &rep, nil
}

// metricOut is one metric in the result line: its value with all its
// digits, and its unit.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// summarize folds the reports into the result line. With several workloads
// each metric name is prefixed by its workload.
func summarize(reps []*report) result {
	res := result{Correct: true, Metrics: map[string]metricOut{}}
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Correct = res.Correct && r.Failed == 0 && r.Attempted > 0
		prefix := ""
		if len(reps) > 1 {
			prefix = r.Workload + "/"
		}
		for k, v := range withUnits(r.Metrics) {
			res.Metrics[prefix+k] = v
		}
	}
	return res
}

// withUnits attaches each metric's registered unit to its value.
func withUnits(metrics map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(metrics))
	for k, v := range metrics {
		out[k] = metricOut{Value: v, Unit: unitOf(k)}
	}
	return out
}

// printReport writes the human-readable report of one workload.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "== %s (seed %d; work unit: %s) ==\n", r.Workload, r.Seed, r.WorkUnit)
	fmt.Fprintf(w, "  fail_ratio %d/%d, digest %.16s\n", r.Failed, r.Attempted, r.Digest)
	if r.Slowdown > 0 {
		fmt.Fprintf(w, "  host slowdown %.3f on average: each host time below is divided by the slowdown around it\n", r.Slowdown)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	for _, d := range registry {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		note := ""
		switch d.Name {
		case "setup_s":
			note = fmt.Sprintf("median of %d cold set-ups", r.Setups)
		case "iter_p50_ms", "iter_p90_ms":
			note = fmt.Sprintf("n=%d", r.Samples)
			if d.Name == "iter_p90_ms" && !percentileOK(r.Samples, tailPct) {
				note += fmt.Sprintf(", fewer than 10 samples beyond p%d", tailPct)
			}
		}
		if d.layer && v == 0 {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-14s %s\n", d.Name, v, d.Unit, note)
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "  spans over %d traced iterations and one set-up:\n", r.Traced)
		fmt.Fprintf(w, "    %-28s %9s %12s %12s\n", "name", "count", "total_ms", "self_ms")
		for _, sp := range r.Spans {
			fmt.Fprintf(w, "    %-28s %9d %12.2f %12.2f\n", sp.Name, sp.Count, float64(sp.TotalNs)/1e6, float64(sp.SelfNs)/1e6)
		}
	}
}

// hostInfo identifies where and what was measured.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: childProcs, GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				modified = kv.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "+dirty"
			}
		}
	}
	return h
}

// jsonReport is the -json document: host info plus every workload's report
// with units attached to its metrics.
type jsonReport struct {
	Host      hostInfo       `json:"host"`
	Workloads []jsonWorkload `json:"workloads"`
}

type jsonWorkload struct {
	*report
	Metrics map[string]metricOut `json:"metrics"`
}

func writeJSON(path string, reps []*report) error {
	doc := jsonReport{Host: host()}
	for _, r := range reps {
		doc.Workloads = append(doc.Workloads, jsonWorkload{report: r, Metrics: withUnits(r.Metrics)})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
