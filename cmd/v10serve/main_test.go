package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	v10 "v10"
)

var update = flag.Bool("update", false, "rewrite the golden summary")

// quickArgs is a small deterministic fleet: two cores, three tenants, high
// open-loop rate over a short window.
func quickArgs(extra ...string) []string {
	return append([]string{
		"-cores", "2", "-tenants", "3", "-models", "BERT,NCF", "-batch", "2",
		"-rate", "2000", "-duration-cycles", "3000000",
		"-policy", "least-loaded", "-seed", "3",
	}, extra...)
}

func TestRunEmitsGoldenSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(quickArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "summary.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("summary drifted from golden (run with -update if intended):\n%s", stdout.String())
	}
}

func TestRunSummarySchema(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(quickArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not JSON: %v", err)
	}
	for _, key := range []string{
		"scheme", "policy", "cores", "tenant_count", "rate_hz", "duration_cycles",
		"total_cycles", "offered", "admitted", "shed", "completed", "good",
		"goodput_hz", "shed_rate", "placement", "core_results", "tenants",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("summary is missing %q", key)
		}
	}
	tenants, ok := doc["tenants"].([]any)
	if !ok || len(tenants) != 3 {
		t.Fatalf("tenants = %v", doc["tenants"])
	}
	first, ok := tenants[0].(map[string]any)
	if !ok {
		t.Fatalf("tenant row = %v", tenants[0])
	}
	for _, key := range []string{
		"tenant", "name", "home_core", "offered", "admitted", "spilled", "shed",
		"completed", "good", "slo_cycles", "avg_latency_cycles",
		"p95_latency_cycles", "p99_latency_cycles", "goodput_hz", "shed_rate",
	} {
		if _, ok := first[key]; !ok {
			t.Errorf("tenant row is missing %q", key)
		}
	}
}

// faultArgs is the resilience fixture: three cores so the two survivors have
// headroom to absorb the failed core's migrated victims.
func faultArgs(extra ...string) []string {
	return append(quickArgs("-cores", "3", "-faults", "fail@0:1500000", "-heartbeat", "100000"), extra...)
}

func TestRunFaultsEmitsGoldenSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(faultArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "summary.faults.golden.json")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("faulted summary drifted from golden (run with -update if intended):\n%s", stdout.String())
	}
}

// TestRunFaultsReportsFleetHeartbeat: without -heartbeat the faults block
// reports the fleet's default period, and feeding that period back
// explicitly reproduces the run byte for byte.
func TestRunFaultsReportsFleetHeartbeat(t *testing.T) {
	args := quickArgs("-cores", "3", "-faults", "fail@0:1500000")
	var dflt, explicit, stderr bytes.Buffer
	if code := run(args, &dflt, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc struct {
		Faults struct {
			HeartbeatCycles int64 `json:"heartbeat_cycles"`
		} `json:"faults"`
	}
	if err := json.Unmarshal(dflt.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	hb := doc.Faults.HeartbeatCycles
	if want := (v10.FleetFaults{}).Heartbeat(); hb != want {
		t.Fatalf("reported heartbeat_cycles %d, fleet default %d", hb, want)
	}
	if code := run(append(args, "-heartbeat", fmt.Sprint(hb)), &explicit, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if !bytes.Equal(dflt.Bytes(), explicit.Bytes()) {
		t.Fatalf("-heartbeat %d changed the run, so the fleet did not use that period:\n%s\nvs\n%s",
			hb, dflt.String(), explicit.String())
	}
}

func TestRunFaultsSummarySchema(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(faultArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc struct {
		Faults map[string]any `json:"faults"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Faults == nil {
		t.Fatal("faulted run emitted no faults block")
	}
	for _, key := range []string{
		"spec", "count", "failed_cores", "heartbeat_cycles", "migrated",
		"migration_shed", "migration_cycles", "baseline_goodput_hz", "goodput_retained",
	} {
		if _, ok := doc.Faults[key]; !ok {
			t.Errorf("faults block is missing %q", key)
		}
	}
	if got := doc.Faults["failed_cores"]; len(got.([]any)) != 1 {
		t.Errorf("failed_cores = %v, want exactly the injected core", got)
	}
	if r, _ := doc.Faults["goodput_retained"].(float64); !(r > 0 && r <= 1) {
		t.Errorf("goodput_retained = %v, want in (0,1]", doc.Faults["goodput_retained"])
	}
	if stderrStr := stderr.String(); !strings.Contains(stderrStr, "goodput retained") {
		t.Error("resilience digest missing from stderr")
	}
}

func TestRunFaultFreeSummaryOmitsFaultsBlock(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(quickArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), `"faults"`) {
		t.Fatal("fault-free summary contains a faults block")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown flag":          {"-definitely-not-a-flag"},
		"invalid policy":        quickArgs("-policy", "greedy"),
		"invalid scheme":        quickArgs("-scheme", "V11"),
		"unknown model":         quickArgs("-models", "NoSuchModel"),
		"zero tenants":          quickArgs("-tenants", "0"),
		"zero cores":            quickArgs("-cores", "0"),
		"one tenant to cluster": quickArgs("-cores", "1", "-tenants", "1", "-policy", "advisor"),
		"bad rate string":       quickArgs("-rate", "fast"),

		"malformed fault spec":     quickArgs("-faults", "fail@"),
		"unknown fault kind":       quickArgs("-faults", "melt@0:1000"),
		"faults and mttf together": quickArgs("-faults", "fail@0:1000", "-mttf", "1000000"),

		"unknown workload":    quickArgs("-workload", "fractal"),
		"trace without file":  quickArgs("-workload", "trace"),
		"missing trace file":  quickArgs("-trace-file", filepath.Join("testdata", "no-such.trace")),
		"unknown mix":         quickArgs("-mix", "everything"),
		"mix with workload":   quickArgs("-mix", "prefill-decode", "-workload", "mmpp"),
		"mix with trace file": quickArgs("-mix", "prefill-decode", "-trace-file", filepath.Join("testdata", "sample.trace")),
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", name, code, stderr.String())
		}
	}
}

// A zero -queue-limit or -duration-cycles is rejected like -cores 0, not
// silently replaced by the fleet's default.
func TestRunRejectsZeroBounds(t *testing.T) {
	for _, flag := range []string{"-queue-limit", "-duration-cycles"} {
		var stdout, stderr bytes.Buffer
		code := run(quickArgs(flag, "0"), &stdout, &stderr)
		want := "invalid " + flag + " 0 (want at least 1)"
		if code != 2 || !strings.Contains(stderr.String(), want) {
			t.Errorf("%s 0: exit %d, want 2 with %q (stderr: %s)", flag, code, want, stderr.String())
		}
	}
}

func TestRunAdvisorPolicy(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := quickArgs("-policy", "advisor", "-tenants", "4")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("advisor run exit %d\n%s", code, stderr.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["policy"] != "advisor" {
		t.Fatalf("policy = %v", doc["policy"])
	}
	if !strings.Contains(stderr.String(), "training collocation advisor") {
		t.Error("advisor training notice missing from stderr")
	}
}

func TestRunWritesTraceAndCounters(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "fleet.trace.json")
	counterPath := filepath.Join(dir, "fleet.counters.csv")
	var stdout, stderr bytes.Buffer
	args := quickArgs("-trace", tracePath, "-counters", counterPath)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not Chrome trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	counters, err := os.ReadFile(counterPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(counters), "core 0") {
		t.Fatalf("counters lack per-core sections:\n%.200s", counters)
	}
}

// workloadArgs is the workload-engine fixture: the quick fleet driven by an
// MMPP flash-crowd stream instead of the legacy dispatcher Poisson draw.
func workloadArgs(extra ...string) []string {
	return append(quickArgs("-workload", "mmpp"), extra...)
}

func TestRunWorkloadEmitsGoldenSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(workloadArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "summary.workload.golden.json")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("workload summary drifted from golden (run with -update if intended):\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "workload: mmpp (models mix)") {
		t.Error("workload digest missing from stderr")
	}
}

func TestRunWorkloadSummarySchema(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(workloadArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc struct {
		Workload map[string]any `json:"workload"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload == nil {
		t.Fatal("workload run emitted no workload block")
	}
	for _, key := range []string{"process", "mix", "scheduled_arrivals"} {
		if _, ok := doc.Workload[key]; !ok {
			t.Errorf("workload block is missing %q", key)
		}
	}
	if n, _ := doc.Workload["scheduled_arrivals"].(float64); n <= 0 {
		t.Errorf("scheduled_arrivals = %v, want > 0", doc.Workload["scheduled_arrivals"])
	}
}

func TestRunLegacyPoissonOmitsWorkloadBlock(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(quickArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), `"workload"`) {
		t.Fatal("legacy Poisson summary contains a workload block")
	}
}

func TestRunTraceFileReplay(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := quickArgs("-trace-file", filepath.Join("testdata", "sample.trace"))
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc struct {
		Workload *workloadSummary `json:"workload"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload == nil || doc.Workload.Process != "trace" {
		t.Fatalf("workload block = %+v, want trace replay", doc.Workload)
	}
	if doc.Workload.TraceFile == "" || doc.Workload.ScheduledArrivals <= 0 {
		t.Fatalf("workload block = %+v", doc.Workload)
	}
}

func TestRunPrefillDecodeMix(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{
		"-cores", "2", "-tenants", "4", "-batch", "2",
		"-rate", "800", "-duration-cycles", "6000000",
		"-policy", "least-loaded", "-seed", "3", "-mix", "prefill-decode",
	}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc struct {
		Workload *workloadSummary       `json:"workload"`
		Tenants  []v10.FleetTenantStats `json:"tenants"`
		Good     int                    `json:"good"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload == nil || doc.Workload.Process != "prefill-decode" {
		t.Fatalf("workload block = %+v", doc.Workload)
	}
	var prefill, decode int
	for _, ts := range doc.Tenants {
		switch {
		case strings.HasPrefix(ts.Name, "prefill-"):
			prefill++
		case strings.HasPrefix(ts.Name, "decode-"):
			decode++
		}
	}
	if prefill != 2 || decode != 2 {
		t.Fatalf("tenant classes: %d prefill, %d decode (want 2/2)", prefill, decode)
	}
	if doc.Good == 0 {
		t.Fatal("prefill/decode fleet served nothing")
	}
}

func TestRunWorkloadDeterministic(t *testing.T) {
	var a, b, stderr bytes.Buffer
	if code := run(workloadArgs(), &a, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if code := run(workloadArgs(), &b, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different workload-mode summaries")
	}
}

// vnpuArgs is the spatial-partitioning fixture: the quick fleet with each
// core carved into a big and a small vNPU slice.
func vnpuArgs(extra ...string) []string {
	return append(quickArgs("-vnpu", "big=0.75:0.75:0.75;small=0.25"), extra...)
}

func TestRunVNPUEmitsGoldenSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(vnpuArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "summary.vnpu.golden.json")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("vnpu summary drifted from golden (run with -update if intended):\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "vnpu slice 0 (big)") {
		t.Error("vnpu digest missing from stderr")
	}
}

func TestRunVNPUSummarySchema(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(vnpuArgs("-vnpu-window", "131072"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc struct {
		VNPU        map[string]any `json:"vnpu"`
		CoreResults []struct {
			Tenants []int            `json:"tenants"`
			SliceOf []int            `json:"slice_of"`
			Slices  []map[string]any `json:"slices"`
		} `json:"core_results"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.VNPU == nil {
		t.Fatal("vnpu run emitted no vnpu block")
	}
	for _, key := range []string{"spec", "window_cycles", "slices"} {
		if _, ok := doc.VNPU[key]; !ok {
			t.Errorf("vnpu block is missing %q", key)
		}
	}
	if w, _ := doc.VNPU["window_cycles"].(float64); w != 131072 {
		t.Errorf("window_cycles = %v, want the -vnpu-window value", doc.VNPU["window_cycles"])
	}
	if rows, _ := doc.VNPU["slices"].([]any); len(rows) != 2 {
		t.Fatalf("vnpu slices = %v, want 2 aggregate rows", doc.VNPU["slices"])
	}
	for _, cr := range doc.CoreResults {
		if len(cr.Tenants) == 0 {
			continue
		}
		if len(cr.SliceOf) != len(cr.Tenants) {
			t.Errorf("core row slice_of = %v for tenants %v", cr.SliceOf, cr.Tenants)
		}
		if len(cr.Slices) != 2 {
			t.Fatalf("core row has %d slice stats, want 2", len(cr.Slices))
		}
		for _, ss := range cr.Slices {
			for _, key := range []string{
				"slice", "name", "compute_fraction", "vmem_bytes", "vmem_used_bytes",
				"window_cycles", "hbm_quota_bytes_per_window", "hbm_bytes",
				"peak_window_bytes", "throttle_stalls", "throttle_cycles",
				"cap_hits", "residents",
			} {
				if _, ok := ss[key]; !ok {
					t.Errorf("slice stats row is missing %q", key)
				}
			}
		}
	}
}

func TestRunVNPUFreeSummaryOmitsVNPUBlock(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(quickArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	for _, key := range []string{`"vnpu"`, `"slice_of"`, `"slices"`} {
		if strings.Contains(stdout.String(), key) {
			t.Fatalf("unsliced summary contains %s", key)
		}
	}
}

func TestRunRejectsBadVNPUFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"malformed spec":     quickArgs("-vnpu", "0.5:0.5"),
		"bad fraction":       quickArgs("-vnpu", "big=huge"),
		"zero-width slice":   quickArgs("-vnpu", "0:0.5:0.5;0.5"),
		"fraction above one": quickArgs("-vnpu", "1.5"),
		"overcommitted vmem": quickArgs("-vnpu", "0.5:0.8:0.5;0.5:0.8:0.5"),
		"overcommitted hbm":  quickArgs("-vnpu", "0.5:0.5:0.9;0.5:0.5:0.9"),
		"empty spec":         quickArgs("-vnpu", " ; "),
		"repeated name":      quickArgs("-vnpu", "a=0.5;a=0.5"),
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", name, code, stderr.String())
		}
	}
}

// TestRunRejectsThroughFleetOptions: flags the fleet validates itself reach
// v10serve as a *v10.FleetOptionsError, the one error run reports as
// "invalid options:", and exit 2. v10serve makes none of these checks.
func TestRunRejectsThroughFleetOptions(t *testing.T) {
	// A tuned policy's knobs override these fields, but never hide an
	// invalid caller value.
	tuned := filepath.Join("..", "..", "results", "tuned_policy.json")
	for name, args := range map[string][]string{
		"tuned over negative queue limit": quickArgs("-queue-limit", "-3", "-tuned", tuned),
		"tuned over slowdown below one":   quickArgs("-admission", "predictive", "-slowdown", "0.5", "-tuned", tuned),
		"slowdown below one":              elasticArgs("-admission", "predictive", "-slowdown", "0.5"),
		"NaN slowdown":                    quickArgs("-admission", "predictive", "-slowdown", "NaN"),
		"infinite slowdown":               quickArgs("-admission", "predictive", "-slowdown", "+Inf"),
		"NaN SLO factor":                  quickArgs("-slo-factor", "NaN"),
		"infinite SLO factor":             quickArgs("-slo-factor", "Inf"),
		"autoscale above cores":           elasticArgs("-autoscale", "9"),
		"negative autoscale":              elasticArgs("-autoscale", "-1"),
		"negative cooldown":               elasticArgs("-cooldown", "-1"),
		"negative control interval":       elasticArgs("-control-interval", "-5"),
		"negative vnpu window":            quickArgs("-vnpu", "0.5;0.5", "-vnpu-window", "-1"),
		"negative feedback rounds":        quickArgs("-feedback-rounds", "-1"),
		"recluster without autoscale":     quickArgs("-recluster", "-policy", "advisor"),
		"recluster without advisor":       elasticArgs("-recluster"),
		"autoscale with faults":           elasticArgs("-faults", "fail@0:1500000"),
		"fault on absent core":            quickArgs("-faults", "fail@7:1000"),
		"window without vnpu":             quickArgs("-vnpu-window", "4096"),
		"negative heartbeat":              quickArgs("-heartbeat", "-5"),
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), "invalid options: ") {
			t.Errorf("%s: exit %d, want 2 with an options error (stderr: %s)", name, code, stderr.String())
		}
	}
}

// TestRunVNPUDeterministic pins slice placement and enforcement accounting:
// the same seed must reproduce the whole sliced summary byte for byte.
func TestRunVNPUDeterministic(t *testing.T) {
	var a, b, stderr bytes.Buffer
	if code := run(vnpuArgs(), &a, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if code := run(vnpuArgs(), &b, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different vnpu-mode summaries")
	}
}

func TestBuildTenantsCyclesMix(t *testing.T) {
	cfg := v10.DefaultConfig()
	ws, err := buildTenants("BERT, NCF", 3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("built %d tenants", len(ws))
	}
	if ws[0].Name != "BERT-b2#0" || ws[1].Name != "NCF-b2#1" || ws[2].Name != "BERT-b2#2" {
		t.Fatalf("names = %s / %s / %s", ws[0].Name, ws[1].Name, ws[2].Name)
	}
}

// writeTunedPolicy drops a policy file with the given knobs into a temp dir.
func writeTunedPolicy(t *testing.T, knobs v10.TunedKnobs) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "policy.json")
	p := &v10.TunedPolicy{Description: "test policy", Knobs: knobs}
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWithTunedPolicy(t *testing.T) {
	path := writeTunedPolicy(t, v10.BuiltinTunedKnobs())
	var tunedOut, defOut, stderr bytes.Buffer
	if code := run(quickArgs("-tuned", path), &tunedOut, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	stderr.Reset()
	if code := run(quickArgs(), &defOut, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var tuned map[string]any
	if err := json.Unmarshal(tunedOut.Bytes(), &tuned); err != nil {
		t.Fatalf("tuned stdout is not JSON: %v", err)
	}
	// The tuned quantum reshapes the schedule: same fixture, different
	// timeline (the coarse counters may tie, the cycle accounting cannot).
	if bytes.Equal(tunedOut.Bytes(), defOut.Bytes()) {
		t.Fatalf("tuned policy left the run bit-identical to the defaults:\n%s", tunedOut.String())
	}
}

func TestRunWithFeedbackRounds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(quickArgs("-feedback-rounds", "1"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not JSON: %v", err)
	}
}

// TestRunRejectsBadTunedPolicy exercises the shared knob validation through
// the CLI: out-of-range values, non-finite values, unknown fields, and
// missing files all exit 2 before any simulation runs.
func TestRunRejectsBadTunedPolicy(t *testing.T) {
	outOfRange := v10.BuiltinTunedKnobs()
	outOfRange.QuantumCycles = 1 // below the legal floor
	tooHigh := v10.BuiltinTunedKnobs()
	tooHigh.DrainOccupancy = 64 // above the legal ceiling
	dir := t.TempDir()
	writeRaw := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Save refuses illegal knobs, so out-of-range files are written raw.
	mustJSON := func(k v10.TunedKnobs) string {
		b, err := json.Marshal(map[string]any{"knobs": k})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for name, args := range map[string][]string{
		"missing policy file": quickArgs("-tuned", filepath.Join(dir, "no-such.json")),
		"malformed policy":    quickArgs("-tuned", writeRaw("garbage.json", "not json")),
		"unknown field":       quickArgs("-tuned", writeRaw("unknown.json", `{"knobs": {}, "bogus": 1}`)),
		"knob below minimum":  quickArgs("-tuned", writeRaw("low.json", mustJSON(outOfRange))),
		"knob above maximum":  quickArgs("-tuned", writeRaw("high.json", mustJSON(tooHigh))),
		"non-finite knob": quickArgs("-tuned", writeRaw("inf.json",
			`{"knobs": {"quantum_cycles": 32768, "preempt_margin": 1e999, "priority_exponent": 0,
			  "queue_limit": 8, "collocation_threshold": 1.3, "migration_backoff_cycles": 250000,
			  "cooldown_intervals": 2, "slowdown_limit": 2.5, "drain_occupancy": 0.25}}`)),
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", name, code, stderr.String())
		}
	}
}

// TestPMTWithSlices: PMT composes with vNPU slicing — each slice
// time-slices its own tenants — and reports the same vnpu block.
func TestPMTWithSlices(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(quickArgs("-vnpu", "0.5;0.5", "-scheme", "PMT"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc struct {
		Scheme    string         `json:"scheme"`
		Completed int            `json:"completed"`
		VNPU      map[string]any `json:"vnpu"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if rows, _ := doc.VNPU["slices"].([]any); len(rows) != 2 {
		t.Fatalf("vnpu slices = %v, want 2 aggregate rows", doc.VNPU["slices"])
	}
	if doc.Completed == 0 {
		t.Fatalf("sliced PMT fleet completed nothing:\n%s", stdout.String())
	}
}
