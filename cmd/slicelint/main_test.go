package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListAnalyzers(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "floateq hotalloc errflow"; got != want {
		t.Errorf("-list names %q, want exactly %q:\n%s", got, want, out.String())
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./internal/aggregate"}, &out, &errOut); code != 0 {
		t.Fatalf("linting internal/aggregate exited %d:\n%s%s", code, out.String(), errOut.String())
	}
}

// fixtureModule writes a throwaway module with one internal/core file.
func fixtureModule(t *testing.T, core string) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixturemod\n\ngo 1.22\n")
	write("internal/core/eq.go", core)
	return dir
}

func TestViolationExitsNonZero(t *testing.T) {
	dir := fixtureModule(t, "package core\n\nfunc same(a, b float64) bool { return a == b }\n")
	var out, errOut strings.Builder
	code := run([]string{"-C", dir, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("want exit 1 on violation, got %d:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "floateq") {
		t.Errorf("finding output missing analyzer name:\n%s", out.String())
	}
}

func TestLoadErrorExitsTwo(t *testing.T) {
	dir := fixtureModule(t, "package core\n\nvar x undefinedType\n")
	var out, errOut strings.Builder
	if code := run([]string{"-C", dir, "./..."}, &out, &errOut); code != 2 {
		t.Fatalf("want exit 2 on a package that does not type-check, got %d:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "undefinedType") {
		t.Errorf("load error should name the offending symbol:\n%s", errOut.String())
	}
}
