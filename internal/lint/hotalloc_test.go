package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestHotAllocFlagsInjectedCopyInScottyIngest loads the real cmd/scotty
// sources with source.go patched to copy a line into a string, once inside
// the scanner loop and once inside parseLine, and requires hotalloc to name
// the function each time. It keeps the //slicelint:hotpath annotations on
// the CSV path honest: an annotation that stopped reaching the per-line code
// would let this copy through.
func TestHotAllocFlagsInjectedCopyInScottyIngest(t *testing.T) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate source file")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	dir := filepath.Join(root, "cmd", "scotty")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	scotty := map[string]string{}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			scotty[name] = string(src)
		}
	}
	cases := []struct {
		name, anchor, patched, want string
	}{
		// The anchors sit inside the named function; a case that cannot
		// find its anchor fails rather than passing on unpatched source.
		{"lines", "line := block[p:]\n", "line := block[p:]\n_ = string(line)\n",
			"main.scanner.lines: string(bytes) conversion copies"},
		{"parseLine", "return parseLineSlow(line)", "_ = string(line)\nreturn parseLineSlow(line)",
			"main.parseLine: string(bytes) conversion copies"},
	}
	// Each patched copy is its own package in one load, so cmd/scotty's
	// imports are type-checked once for both.
	overlay := map[string]map[string]string{}
	var paths []string
	for _, c := range cases {
		if n := strings.Count(scotty["source.go"], c.anchor); n != 1 {
			t.Fatalf("%s: anchor %q occurs %d times in cmd/scotty/source.go, want 1", c.name, c.anchor, n)
		}
		pkg := map[string]string{}
		for name, src := range scotty {
			pkg[name] = src
		}
		pkg["source.go"] = strings.Replace(scotty["source.go"], c.anchor, c.patched, 1)
		path := "scotty/cmd/scotty_" + c.name
		overlay[path] = pkg
		paths = append(paths, path)
	}
	pkgs, err := (&Loader{ModulePath: "scotty", Dir: root, Overlay: overlay}).Load(paths...)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, f := range Run([]*Analyzer{HotAlloc}, pkgs) {
		dir := filepath.Base(filepath.Dir(f.Pos.Filename))
		got[dir] = append(got[dir], f.String())
	}
	for _, c := range cases {
		findings := got["scotty_"+c.name]
		if len(findings) != 1 || !strings.Contains(findings[0], c.want) {
			t.Errorf("%s: want one hotalloc finding %q, got %q", c.name, c.want, findings)
		}
	}
}

func TestHotAllocFlagsDirectViolations(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": `package core

type op struct {
	buf []int
}

//slicelint:hotpath
func (o *op) Ingest(xs []int) {
	tmp := []int{}
	for _, x := range xs {
		tmp = append(tmp, x)
	}
	o.buf = append(o.buf, tmp...)
}
`},
	}
	got := findingsOf(t, HotAlloc, overlay, "fixture/internal/core")
	wantFindings(t, got,
		"slice literal allocates",
		"append to a function-local slice allocates",
	)
	// The field append (o.buf) is a persistent buffer and must not be flagged.
	for _, f := range got {
		if strings.Contains(f, "o.buf") {
			t.Errorf("field append flagged: %s", f)
		}
	}
}

func TestHotAllocFollowsTransitiveCalleesAcrossPackages(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": `package core

import "fixture/internal/util"

//slicelint:hotpath
func Ingest(x int) int { return util.Helper(x) }
`},
		"fixture/internal/util": {"u.go": `package util

import "fmt"

func Helper(x int) int {
	fmt.Println(x)
	return x
}
`},
	}
	got := findingsOf(t, HotAlloc, overlay, "fixture/internal/core", "fixture/internal/util")
	wantFindings(t, got, "fmt.Println allocates")
	if !strings.Contains(got[0], "hot via core.Ingest") {
		t.Errorf("transitive finding should name the hot seed, got %q", got[0])
	}
}

func TestHotAllocBoxingAndClosureCapture(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": `package core

func sink(v any)

//slicelint:hotpath
func Ingest(x int) func() {
	sink(x)
	n := 0
	f := func() { n++ }
	n = x
	return f
}

//slicelint:hotpath
func ReadOnlyCapture(xs []int, limit int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	pred := func(x int) bool { return x < limit }
	if pred(total) {
		return total
	}
	return limit
}
`},
	}
	got := findingsOf(t, HotAlloc, overlay, "fixture/internal/core")
	wantFindings(t, got,
		"boxes the value",
		"closure captures n by reference",
	)
}

func TestHotAllocStopsAtColdpathAndAllowsPools(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": `package core

import "sync"

var pool sync.Pool

type slice struct{ ev []int }

//slicelint:hotpath
func Ingest(x int) *slice {
	s := newSlice()
	s.ev = append(s.ev, x)
	if x < 0 {
		repair(x)
	}
	return s
}

// newSlice is a pool miss-constructor: its allocation amortizes away.
func newSlice() *slice {
	if v := pool.Get(); v != nil {
		return v.(*slice)
	}
	return &slice{ev: make([]int, 0, 8)}
}

//slicelint:coldpath out-of-order repair runs per late tuple, not per in-order tuple
func repair(x int) {
	_ = make([]int, x)
}
`},
	}
	got := findingsOf(t, HotAlloc, overlay, "fixture/internal/core")
	wantFindings(t, got)
}

func TestHotAllocAnnotationHygiene(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": `package core

//slicelint:coldpath
func a() {}

//slicelint:frobnicate some reason
func b() {}
`},
	}
	got := findingsOf(t, HotAlloc, overlay, "fixture/internal/core")
	wantFindings(t, got,
		"needs a reason",
		"unknown //slicelint:frobnicate annotation",
	)
}

func TestHotAllocSuppression(t *testing.T) {
	overlay := map[string]map[string]string{
		"fixture/internal/core": {"a.go": `package core

//slicelint:hotpath
func Ingest(x int) []int {
	//lint:ignore hotalloc first-call warmup only; steady state reuses the buffer
	out := make([]int, 0, x)
	return out
}
`},
	}
	got := findingsOf(t, HotAlloc, overlay, "fixture/internal/core")
	wantFindings(t, got)
}
