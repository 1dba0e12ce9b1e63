package lint

import (
	"strings"
	"testing"
)

// loadFixture type-checks an in-memory module and returns its packages.
// overlay maps import path -> file name -> source; every path should start
// with "fixture/".
func loadFixture(t *testing.T, overlay map[string]map[string]string, paths ...string) []*Package {
	t.Helper()
	l := &Loader{ModulePath: "fixture", Overlay: overlay}
	pkgs, err := l.Load(paths...)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	return pkgs
}

// findingsOf runs one analyzer over the fixture and returns the rendered
// findings (suppressions applied).
func findingsOf(t *testing.T, a *Analyzer, overlay map[string]map[string]string, paths ...string) []string {
	t.Helper()
	pkgs := loadFixture(t, overlay, paths...)
	var out []string
	for _, f := range Run([]*Analyzer{a}, pkgs) {
		out = append(out, f.String())
	}
	return out
}

func wantFindings(t *testing.T, got []string, substrings ...string) {
	t.Helper()
	if len(got) != len(substrings) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(substrings), strings.Join(got, "\n"))
	}
	for i, want := range substrings {
		if !strings.Contains(got[i], want) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i], want)
		}
	}
}

func TestSuppressionOnPrecedingLine(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": `package core

func eq(a, b float64) bool {
	//lint:ignore floateq documented reason
	return a == b
}

func eq2(a, b float64) bool {
	return a != b
}
`},
	}
	got := findingsOf(t, FloatEq, overlay, "fixture/internal/core")
	wantFindings(t, got, "floating-point != comparison")
	if !strings.Contains(got[0], "a.go:9:") {
		t.Errorf("surviving finding should be the unsuppressed one at line 9, got %q", got[0])
	}
}

func TestSuppressionWrongAnalyzerDoesNotApply(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": `package core

func eq(a, b float64) bool {
	//lint:ignore nondeterminism wrong analyzer name
	return a == b
}
`},
	}
	got := findingsOf(t, FloatEq, overlay, "fixture/internal/core")
	wantFindings(t, got, "floating-point == comparison")
}

func TestCheckDirectivesFlagsMissingReason(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": `package core

//lint:ignore floateq
func f() {}
`},
	}
	pkgs := loadFixture(t, overlay, "fixture/internal/core")
	got := CheckDirectives(pkgs)
	if len(got) != 1 || !strings.Contains(got[0].Message, "malformed") {
		t.Fatalf("want one malformed-directive finding, got %v", got)
	}
}

// TestLoaderSkipsBuildIgnoredFiles pins the go-run-only tool-file
// convention: a `//go:build ignore` file (a `go run file.go` script) must
// not be compiled into its directory's package — here it would redeclare
// main and fail type-checking.
func TestLoaderSkipsBuildIgnoredFiles(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/tools": {
			"main.go": "package main\n\nfunc main() {}\n",
			"gen.go":  "//go:build ignore\n\npackage main\n\nfunc main() {}\n",
		},
	}
	l := &Loader{ModulePath: "fixture", Overlay: overlay}
	if _, err := l.Load("fixture/tools"); err != nil {
		t.Fatalf("build-ignored file was compiled into the package: %v", err)
	}
}

func TestLoaderRejectsTypeErrors(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/bad": {"a.go": "package bad\n\nvar x undefinedType\n"},
	}
	l := &Loader{ModulePath: "fixture", Overlay: overlay}
	if _, err := l.Load("fixture/bad"); err == nil {
		t.Fatal("want a type error, got none")
	}
}

func TestLoaderResolvesStdlibAndLocalImports(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/util": {"u.go": "package util\n\nfunc Twice(x int) int { return 2 * x }\n"},
		"fixture/app": {"m.go": `package app

import (
	"fmt"

	"fixture/util"
)

func Describe() string { return fmt.Sprint(util.Twice(21)) }
`},
	}
	pkgs := loadFixture(t, overlay, "fixture/app")
	if len(pkgs) != 1 || pkgs[0].Types == nil {
		t.Fatalf("load failed: %+v", pkgs)
	}
}
