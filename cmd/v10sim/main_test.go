package main

import (
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
