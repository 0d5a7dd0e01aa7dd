package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// elasticArgs is the autoscaling fixture: three cores starting from one
// active, overloaded enough that the control loop must scale up.
func elasticArgs(extra ...string) []string {
	return append([]string{
		"-cores", "3", "-tenants", "4", "-models", "BERT,NCF", "-batch", "2",
		"-rate", "20000", "-duration-cycles", "3000000",
		"-policy", "least-loaded", "-seed", "3", "-autoscale", "1",
	}, extra...)
}

func TestRunElasticEmitsGoldenSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(elasticArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "summary.elastic.golden.json")
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
		t.Fatalf("elastic summary drifted from golden (run with -update if intended):\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "elastic: ") {
		t.Error("elastic digest missing from stderr")
	}
}

func TestRunElasticSummarySchema(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(elasticArgs("-admission", "predictive", "-cooldown", "400000"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc struct {
		Elastic map[string]any `json:"elastic"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Elastic == nil {
		t.Fatal("autoscaled run emitted no elastic block")
	}
	for _, key := range []string{
		"min_cores", "max_cores", "interval_cycles", "cooldown_cycles",
		"admission", "recluster", "final_active_cores", "peak_active_cores",
		"scale_ups", "scale_downs", "drain_victims", "readmitted", "drain_shed",
		"reclusters", "provisioned_core_cycles", "static_core_cycles", "decisions",
	} {
		if _, ok := doc.Elastic[key]; !ok {
			t.Errorf("elastic block is missing %q", key)
		}
	}
	if doc.Elastic["admission"] != "predictive" {
		t.Errorf("admission = %v", doc.Elastic["admission"])
	}
	if cd, _ := doc.Elastic["cooldown_cycles"].(float64); cd != 400000 {
		t.Errorf("cooldown_cycles = %v, want the -cooldown value", doc.Elastic["cooldown_cycles"])
	}
	if ups, _ := doc.Elastic["scale_ups"].(float64); ups == 0 {
		t.Error("overloaded autoscaling fixture never scaled up")
	}
	prov, _ := doc.Elastic["provisioned_core_cycles"].(float64)
	static, _ := doc.Elastic["static_core_cycles"].(float64)
	if !(prov > 0 && prov < static) {
		t.Errorf("provisioned %v vs static %v: elastic fleet should pay for less", prov, static)
	}
	if decs, _ := doc.Elastic["decisions"].([]any); len(decs) == 0 {
		t.Error("no decision trace in the elastic block")
	}
}

func TestRunStaticSummaryOmitsElasticBlock(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(quickArgs(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), `"elastic"`) {
		t.Fatal("static summary contains an elastic block")
	}
}

func TestRunElasticDeterministic(t *testing.T) {
	var a, b, stderr bytes.Buffer
	args := elasticArgs("-admission", "predictive")
	if code := run(args, &a, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if code := run(args, &b, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different elastic summaries")
	}
}

func TestRunElasticRecluster(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := elasticArgs("-policy", "advisor", "-recluster", "-tenants", "6",
		"-models", "BERT,NCF,Transformer,DLRM,ResNet,MNIST")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc struct {
		Elastic struct {
			Recluster  bool    `json:"recluster"`
			ModelDrift float64 `json:"model_drift"`
		} `json:"elastic"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Elastic.Recluster {
		t.Fatal("recluster flag not reflected in the elastic block")
	}
	if doc.Elastic.ModelDrift <= 0 {
		t.Fatal("online re-clustering reported zero model drift")
	}
}

func TestRunRejectsBadElasticFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"negative cooldown":           elasticArgs("-cooldown", "-1"),
		"negative control interval":   elasticArgs("-control-interval", "-5"),
		"autoscale above cores":       elasticArgs("-autoscale", "9"),
		"negative autoscale":          elasticArgs("-autoscale", "-1"),
		"autoscale with vnpu":         elasticArgs("-vnpu", "0.5;0.5"),
		"autoscale with faults":       elasticArgs("-faults", "fail@0:1500000"),
		"cooldown without autoscale":  quickArgs("-cooldown", "100000"),
		"interval without autoscale":  quickArgs("-control-interval", "100000"),
		"recluster without autoscale": quickArgs("-recluster", "-policy", "advisor"),
		"recluster without advisor":   elasticArgs("-recluster"),
		"unknown admission":           quickArgs("-admission", "psychic"),
		"slowdown below one":          elasticArgs("-admission", "predictive", "-slowdown", "0.5"),
		"slowdown without predictive": quickArgs("-slowdown", "4"),
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", name, code, stderr.String())
		}
	}
}

// TestPMTWithAutoscale: PMT composes with the elastic control plane.
func TestPMTWithAutoscale(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(elasticArgs("-scheme", "PMT"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc struct {
		Elastic map[string]any `json:"elastic"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Elastic["min_cores"]; !ok {
		t.Fatalf("autoscaled PMT run reports no elastic min_cores:\n%s", stdout.String())
	}
}
