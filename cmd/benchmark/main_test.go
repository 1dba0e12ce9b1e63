package main

import (
	"strings"
	"testing"
)

func TestTable1SmokeRun(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-fig", "table1"}, &out, &errOut); code != 0 {
		t.Fatalf("benchmark -fig table1 exited %d: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"general stream slicing benchmark", "Table 1", "technique", "formula", "measured"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// The table must contain data rows, not just headers.
	if strings.Count(got, "\n") < 5 {
		t.Fatalf("suspiciously short output:\n%s", got)
	}
}

func TestCSVModeEmitsCSV(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-fig", "table1", "-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("benchmark -csv exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), ",") {
		t.Fatalf("CSV mode produced no comma-separated rows:\n%s", out.String())
	}
}

func TestUnknownFigureExitsNonZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-fig", "99"}, &out, &errOut); code == 0 {
		t.Fatal("unknown figure should exit non-zero")
	}
	if out.Len() != 0 {
		t.Fatalf("unknown figure wrote to stdout before failing:\n%s", out.String())
	}
	if code := run(nil, &out, &errOut); code == 0 {
		t.Fatal("missing -fig should exit non-zero")
	}
}
