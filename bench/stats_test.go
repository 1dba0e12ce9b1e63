package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The tail a summary reports is the highest percentile with at least ten
// samples beyond it.
func TestSummarizeTail(t *testing.T) {
	for _, c := range []struct {
		n                     int
		median, tailPct, tail float64
	}{
		{9, 5, 0, 0},
		{100, 50, 90, 90},
		{1000, 500, 99, 990},
		{12000, 6000, 99.9, 11988},
	} {
		s := summarize(ramp(c.n))
		if s.n != c.n || s.median != c.median || s.tailPct != c.tailPct || s.tail != c.tail {
			t.Errorf("n=%d: got %+v, want median %v p%v=%v", c.n, s, c.median, c.tailPct, c.tail)
		}
		if beyond := float64(c.n) * (100 - s.tailPct) / 100; s.tailPct > 0 && beyond < 10 {
			t.Errorf("n=%d: p%v has only %v samples beyond it", c.n, s.tailPct, beyond)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what the acceptance check of the benchmark's spreads uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles(ramp(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
}

// best leaves out the single fastest child run once there are three.
func TestBest(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 1},
		{[]float64{3, 1, 2}, 2},
		{[]float64{5, 4, 9, 4.5, 7}, 4.5},
	} {
		if got := best(c.in); got != c.want {
			t.Errorf("best(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// bestOf takes the undisturbed sections as measured when there are three,
// and otherwise all of them corrected.
func TestBestOf(t *testing.T) {
	values := []float64{10, 11, 12, 40, 2}
	at := func(i int) float64 { return values[i] }
	half := func(x, avail float64) float64 { return x * avail }
	if got := bestOf([]float64{1, 0.99, 1, 0.5, 0.1}, at, half); got != 11 {
		t.Errorf("three undisturbed sections: got %v, want their second smallest, 11", got)
	}
	// Two undisturbed: every section counts, corrected: 10, 11, 6, 20, 0.2.
	if got := bestOf([]float64{1, 1, 0.5, 0.5, 0.1}, at, half); got != 6 {
		t.Errorf("two undisturbed sections: got %v, want the second smallest corrected value, 6", got)
	}
}

func TestAvailability(t *testing.T) {
	a := availability(cpuTicks{busy: 1000, steal: 50, ok: true}, cpuTicks{busy: 1100, steal: 100, ok: true})
	if want := 100.0 / 150.0; a != want {
		t.Errorf("availability = %v, want %v", a, want)
	}
	if a := availability(cpuTicks{}, cpuTicks{busy: 5, steal: 5, ok: true}); a != 1 {
		t.Errorf("a missing reading must not correct anything, got %v", a)
	}
	if got, want := net(10, 0.64), 10*0.64*0.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("net(10) at 64%% availability = %v, want %v", got, want)
	}
	if got := netCPU(10, 0.8); got != 8 {
		t.Errorf("netCPU(10) at 80%% availability = %v, want 8", got)
	}
	if net(10, 1) != 10 || netCPU(10, 1) != 10 {
		t.Errorf("nothing stolen, nothing corrected: net %v, netCPU %v", net(10, 1), netCPU(10, 1))
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Parent: 0, Name: "rung", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "rung/batch", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "rung/batch", Start: 50, End: 90},
	}}
	self := tr.selfTimes()
	if self["rung"] != 30 || self["rung/batch"] != 70 {
		t.Errorf("self times %v, want rung 30ns and rung/batch 70ns", self)
	}
}
