package experiments

import (
	"bytes"
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
