package main

import (
	"bytes"
	"strings"
	"testing"

	v10 "v10"
)

func TestParseWorkloads(t *testing.T) {
	cfg := v10.DefaultConfig()
	ws, err := parseWorkloads("BERT:32,DLRM:32:0.25", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || ws[0].Name != "BERT-b32" {
		t.Fatalf("parsed %v", ws)
	}
	if ws[1].Priority != 0.25 {
		t.Fatalf("priority = %v", ws[1].Priority)
	}
	for _, bad := range []string{
		"BERT",           // missing batch
		"BERT:x",         // bad batch
		"BERT:32:x",      // bad priority
		"NoSuchModel:32", // unknown model
		"BERT:32:1:1",    // too many fields
		"Mask-RCNN:999",  // OOM
	} {
		if _, err := parseWorkloads(bad, cfg); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

// TestSchemeByName checks the spellings the -scheme flag accepts.
func TestSchemeByName(t *testing.T) {
	cases := map[string]v10.Scheme{
		"pmt": v10.SchemePMT, "PMT": v10.SchemePMT,
		"V10-Full": v10.SchemeV10Full, "full": v10.SchemeV10Full,
		"base": v10.SchemeV10Base, "fair": v10.SchemeV10Fair,
	}
	for in, want := range cases {
		got, err := v10.ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v,%v", in, got, err)
		}
	}
	if _, err := v10.ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

// TestRunRejectsBadFlags: a count the library would silently replace, and
// options the library rejects with a typed error, exit 2.
func TestRunRejectsBadFlags(t *testing.T) {
	small := []string{"-workloads", "MNST:1,NCF:1", "-requests", "1"}
	for name, args := range map[string][]string{
		"zero requests":                         {"-requests", "0"},
		"negative requests":                     {"-requests", "-3"},
		"negative counter interval":             append(small, "-counter-interval", "-5"),
		"one scheme, negative counter interval": append(small, "-scheme", "V10-Full", "-counter-interval", "-5"),
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", name, code, stderr.String())
		}
	}
}

// TestRunPrintsEveryScheme: the comparison prints one block per scheme.
func TestRunPrintsEveryScheme(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workloads", "MNST:1,NCF:1", "-requests", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
	}
	for _, s := range []string{"PMT", "V10-Base", "V10-Fair", "V10-Full"} {
		if !strings.Contains(stdout.String(), "=== "+s+" ===") {
			t.Errorf("no %s block in:\n%s", s, stdout.String())
		}
	}
}
