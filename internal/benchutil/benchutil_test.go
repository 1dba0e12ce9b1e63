package benchutil

import (
	"math"
	"strings"
	"testing"

	"scotty/internal/stream"
	"scotty/internal/window"
)

func TestAllTechniquesProduceResults(t *testing.T) {
	for _, tech := range AllTechniques {
		t.Run(string(tech), func(t *testing.T) {
			w := Workload{
				Ordered: tech.InOrderOnly(),
				Defs:    func() []window.Definition { return TumblingQueries(5) },
			}
			d := stream.Disorder{}
			if !tech.InOrderOnly() {
				w.Ordered = false
				w.Lateness = 4000
				d = stream.Disorder{Fraction: 0.1, MaxDelay: 1000, Seed: 1}
			}
			in := MakeInput(stream.Machine(), 3000, d, 42)
			op, err := NewOp(tech, SumFn(), w)
			if err != nil {
				t.Fatalf("NewOp: %v", err)
			}
			_, results := Throughput(op, in)
			if results == 0 {
				t.Fatalf("%s emitted no results", tech)
			}
		})
	}
}

func TestTechniquesAgreeOnFinalWindowCount(t *testing.T) {
	// In-order, tumbling windows, no empties skipped except by buckets:
	// all slicing-family techniques must emit identical window sets.
	counts := map[Technique]int64{}
	for _, tech := range []Technique{LazySlicing, EagerSlicing, Pairs, Cutty, TupleBuffer} {
		in := MakeInput(stream.Football(), 20_000, stream.Disorder{}, 42)
		op, err := NewOp(tech, SumFn(), Workload{
			Ordered: true,
			Defs:    func() []window.Definition { return TumblingQueries(3) },
		})
		if err != nil {
			t.Fatalf("NewOp: %v", err)
		}
		_, results := Throughput(op, in)
		counts[tech] = results
	}
	base := counts[LazySlicing]
	for tech, n := range counts {
		if n != base {
			t.Errorf("%s emitted %d windows, lazy slicing %d", tech, n, base)
		}
	}
}

func TestUnknownTechniqueIsAnError(t *testing.T) {
	w := Workload{Defs: func() []window.Definition { return TumblingQueries(1) }}
	if _, err := NewOp(Technique("bogus"), SumFn(), w); err == nil {
		t.Fatal("NewOp accepted an unknown technique")
	}
	if _, err := NewBatchOp(Technique("bogus"), SumFn(), w); err == nil {
		t.Fatal("NewBatchOp accepted an unknown technique")
	}
}

// TestMeasureTailQuantiles pins what the tail-latency figure prints from:
// every slice store's quantile set is finite, positive, and monotone.
func TestMeasureTailQuantiles(t *testing.T) {
	for _, tech := range []Technique{LazySlicing, EagerSlicing, DABASlicing} {
		op, err := NewOp(tech, SumFn(), Workload{
			Ordered: true,
			Defs:    func() []window.Definition { return SlidingQueries(10) },
		})
		if err != nil {
			t.Fatalf("NewOp: %v", err)
		}
		q := MeasureTail(op, MakeInput(stream.Football(), 5000, stream.Disorder{}, 42))
		for _, name := range []string{"p50", "p99", "p999", "max"} {
			if v := q[name]; math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("%s: quantile %s = %v, want finite positive (%v)", tech, name, v, q)
			}
		}
		if !(q["p50"] <= q["p99"] && q["p99"] <= q["p999"] && q["p999"] <= q["max"]) {
			t.Fatalf("%s: quantiles not monotone: %v", tech, q)
		}
	}
}

func TestTumblingQueriesSpread(t *testing.T) {
	defs := TumblingQueries(20)
	if len(defs) != 20 {
		t.Fatalf("len %d", len(defs))
	}
	type paramer interface{ Params() (int64, int64) }
	first, _ := defs[0].(paramer).Params()
	last, _ := defs[19].(paramer).Params()
	if first != 1000 || last != 20000 {
		t.Fatalf("lengths %d..%d want 1000..20000", first, last)
	}
	for _, d := range defs {
		l, s := d.(paramer).Params()
		if l != s {
			t.Fatal("tumbling queries must have slide == length")
		}
	}
}

func TestWithSessionAppendsSession(t *testing.T) {
	defs := WithSession(TumblingQueries(2))
	if len(defs) != 3 || !window.IsSession(defs[2]) {
		t.Fatal("WithSession wrong")
	}
}

func TestTablePrintAndCSV(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.Add("alpha", 1234.5678)
	tab.Add("b", int64(7))
	var sb strings.Builder
	tab.Print(&sb)
	out := sb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("table output: %q", out)
	}
	sb.Reset()
	tab.CSV(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 || lines[0] != "name,value" {
		t.Fatalf("csv output: %q", sb.String())
	}
}

func TestMakeInputRespectsDisorderAndWatermarks(t *testing.T) {
	in := MakeInput(stream.Football(), 5000, stream.Disorder{Fraction: 0.2, MaxDelay: 500, Seed: 3}, 42)
	if in.Events != 5000 {
		t.Fatalf("events %d", in.Events)
	}
	wmSeen := false
	curWM := stream.MinTime
	for _, it := range in.Items {
		if it.Kind == stream.KindWatermark {
			wmSeen = true
			curWM = it.Watermark
			continue
		}
		if it.Event.Time <= curWM {
			t.Fatal("event behind watermark despite lag = maxdelay+1")
		}
	}
	if !wmSeen {
		t.Fatal("no watermarks generated")
	}
}
