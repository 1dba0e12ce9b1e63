package lint

import (
	"runtime"
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

// corePkg is a one-file fixture package at fixture/internal/core.
func corePkg(src string) map[string]map[string]string {
	return map[string]map[string]string{"fixture/internal/core": {"f.go": src}}
}

// findingsOf runs one analyzer over the fixture and returns the rendered
// findings (suppressions applied, directive findings included).
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

// TestSuppressionWrongAnalyzerDoesNotApply: a directive suppresses only
// findings of the analyzer it names. Naming an analyzer that did not run
// (errflow here) is not judged dead: that run could not have seen its
// findings.
func TestSuppressionWrongAnalyzerDoesNotApply(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": `package core

func eq(a, b float64) bool {
	//lint:ignore errflow wrong analyzer name
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
	got := findingsOf(t, FloatEq, overlay, "fixture/internal/core")
	wantFindings(t, got, "directive: malformed //lint:ignore directive")
}

// TestCheckDirectivesFlagsDeadSuppressions: a well-formed directive that
// suppresses nothing is a finding too — whether the analyzer it names ran
// and found nothing there, or it names no analyzer at all (a suppression
// that outlived the analyzer it was written for).
func TestCheckDirectivesFlagsDeadSuppressions(t *testing.T) {
	got := findingsOf(t, FloatEq, corePkg(`package core

func lt(a, b float64) bool {
	//lint:ignore floateq there is no equality here to excuse
	return a < b
}

func eq(a, b int) bool {
	//lint:ignore nondeterminism no such analyzer
	return a == b
}
`), "fixture/internal/core")
	wantFindings(t, got,
		"f.go:4:2: directive: //lint:ignore floateq suppresses nothing",
		`f.go:9:2: directive: //lint:ignore names "nondeterminism", which is not an analyzer`,
	)
}

// TestSuppressionSurvivesTabsAndDocGroups pins the directive-matching fix:
// tab-separated fields and directives inside indented comment blocks used to
// fail the exact-prefix match and silently suppress nothing.
func TestSuppressionSurvivesTabsAndDocGroups(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": "package core\n" +
			"\n" +
			"func eq(a, b float64) bool {\n" +
			"\t//lint:ignore\tfloateq\ttab-separated fields must parse\n" +
			"\treturn a == b\n" +
			"}\n" +
			"\n" +
			"// eq2 compares floats.\n" +
			"//lint:ignore floateq directive inside a doc-comment group\n" +
			"func eq2(a, b float64) bool { return a == b }\n" +
			"\n" +
			"func eq3(a, b float64) bool { return a == b }\n"},
	}
	got := findingsOf(t, FloatEq, overlay, "fixture/internal/core")
	// Both directives are well-formed and each suppresses the comparison on
	// the line below it; only eq3's comparison survives.
	wantFindings(t, got, "floating-point == comparison")
	if !strings.Contains(got[0], "a.go:12:") {
		t.Errorf("only eq3's comparison at line 12 should survive, got %q", got[0])
	}
}

// TestSuppressionAppliesLineBelowDirective pins the adjacency contract: a
// directive suppresses its own line and the line directly below, nothing
// further — so one two lines above its finding suppresses nothing.
func TestSuppressionAppliesLineBelowDirective(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": `package core

func eq(a, b float64) bool {
	//lint:ignore floateq reason on the line above

	return a == b
}
`},
	}
	got := findingsOf(t, FloatEq, overlay, "fixture/internal/core")
	wantFindings(t, got, "directive: //lint:ignore floateq suppresses nothing", "floating-point == comparison")
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

// TestLoaderKeepsToThisPlatform pins that the loader takes a package's files
// as the go toolchain does on this platform: of two files declaring the same
// function, one for each side of a //go:build constraint or a _GOOS file name
// suffix, only the one built here is loaded.
func TestLoaderKeepsToThisPlatform(t *testing.T) {
	other := "windows"
	if runtime.GOOS == other {
		other = "linux"
	}
	overlay := map[string]map[string]string{
		"fixture/tagged": {
			"a.go":                      "package tagged\n\nfunc f() int { return g() }\n",
			"here.go":                   "//go:build " + runtime.GOOS + "\n\npackage tagged\n\nfunc g() int { return 1 }\n",
			"there.go":                  "//go:build !" + runtime.GOOS + "\n\npackage tagged\n\nfunc g() int { return 2 }\n",
			"h_" + other + ".go":        "package tagged\n\nfunc h() {}\n",
			"h_" + runtime.GOOS + ".go": "package tagged\n\nfunc h() {}\n",
		},
	}
	l := &Loader{ModulePath: "fixture", Overlay: overlay}
	if _, err := l.Load("fixture/tagged"); err != nil {
		t.Fatalf("a file built only elsewhere was compiled into the package: %v", err)
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
