package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// tiny is a minimal scale for smoke-testing every experiment end to end.
func tiny() Scale {
	return Scale{Events: 4000, SlowEvents: 1500, MaxWindows: 10, MemTuples: 2000, LatencyMax: 2000, Parallelism: 2, MaxKeys: 1000}
}

func TestEveryExperimentRuns(t *testing.T) {
	for _, e := range experimentsByID {
		id := e.id
		t.Run("fig"+id, func(t *testing.T) {
			var buf bytes.Buffer
			known, err := Run(id, &buf, tiny())
			if !known {
				t.Fatalf("experiment %q unknown", id)
			}
			if err != nil {
				t.Fatalf("experiment %q failed: %v", id, err)
			}
			out := buf.String()
			if !strings.Contains(out, "==") {
				t.Fatalf("experiment %q produced no table:\n%s", id, out)
			}
			if strings.Contains(out, "NaN") {
				t.Errorf("experiment %q produced NaN cells:\n%s", id, out)
			}
		})
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	var buf bytes.Buffer
	if known, _ := Run("nope", &buf, tiny()); known {
		t.Fatal("unknown id accepted")
	}
}

func TestScalesAreOrdered(t *testing.T) {
	q, f := Quick(), Full()
	if q.Events >= f.Events || q.MaxWindows >= f.MaxWindows {
		t.Fatal("quick scale should be strictly smaller than full")
	}
}

func TestWindowsSweepCapped(t *testing.T) {
	sc := Quick()
	sc.MaxWindows = 42
	for _, n := range sc.windowsSweep() {
		if n > 42 {
			t.Fatalf("sweep exceeded cap: %d", n)
		}
	}
}

// TestDocumentedFiguresExist requires every `benchmark -fig <id>` and
// `BenchmarkPaper/<id>` the top-level docs and docs/ name to be an
// experiment id, so a renamed or deleted figure cannot linger in prose.
func TestDocumentedFiguresExist(t *testing.T) {
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md")
	cited := regexp.MustCompile(`(?:benchmark -fig |BenchmarkPaper/)([\w|-]+)`)
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cited.FindAllSubmatch(text, -1) {
			for _, id := range strings.Split(string(m[1]), "|") {
				if id != "all" && !slices.Contains(IDs(), id) {
					t.Errorf("%s cites %q, but %q is not an experiment id (%v)", filepath.Base(doc), m[0], id, IDs())
				}
			}
		}
	}
}
