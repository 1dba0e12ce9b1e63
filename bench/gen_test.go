package main

import (
	"bytes"
	"math"
	"testing"

	"scotty/internal/stream"
)

const testTuples = 20000

func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range workloads {
		a, b, c := generate(w, 7, testTuples), generate(w, 7, testTuples), generate(w, 8, testTuples)
		if !bytes.Equal(a.csv, b.csv) || a.sha256 != b.sha256 {
			t.Errorf("%s: the same seed gave different bytes", w.name)
		}
		if bytes.Equal(a.csv, c.csv) || a.sha256 == c.sha256 {
			t.Errorf("%s: different seeds gave the same bytes", w.name)
		}
		if len(a.events) != testTuples || a.lineEnd[testTuples-1] != len(a.csv) {
			t.Errorf("%s: %d events, last line ends at %d of %d bytes", w.name, len(a.events), a.lineEnd[testTuples-1], len(a.csv))
		}
	}
}

func TestPayloadsAreSmallIntegers(t *testing.T) {
	for _, w := range workloads {
		for _, e := range w.events(3, testTuples) {
			if v := e.Value.V; v != math.Trunc(v) || v < 0 || v >= 1000 {
				t.Fatalf("%s: payload %v is not an integer in [0, 1000)", w.name, v)
			}
		}
	}
}

func TestZipfKeys(t *testing.T) {
	counts := map[int32]int{}
	events := zipfEvents(5, 200000)
	for _, e := range events {
		if e.Value.Key < 0 || e.Value.Key >= zipfKeys {
			t.Fatalf("key %d outside [0, %d)", e.Value.Key, zipfKeys)
		}
		counts[e.Value.Key]++
	}
	for k, n := range counts {
		if n > counts[0] {
			t.Errorf("key %d (%d tuples) is hotter than key 0 (%d)", k, n, counts[0])
		}
	}
	// Zipf(1.1) over 10000 keys puts about 15% of the mass on the first.
	if share := float64(counts[0]) / float64(len(events)); share < 0.10 || share > 0.20 {
		t.Errorf("key 0 holds %.3f of the tuples, want about 0.15", share)
	}
	if len(counts) < zipfKeys/2 {
		t.Errorf("only %d distinct keys drawn", len(counts))
	}
}

// Delays must stay below watermark lag + allowed lateness (nothing dropped)
// and some must exceed the lag (update rows occur).
func TestDisorderDelays(t *testing.T) {
	events := sparseDisorderedEvents(2, testTuples)
	maxTS, late, pastLag := stream.MinTime, 0, 0
	for _, e := range events {
		if e.Time > maxTS {
			maxTS = e.Time
			continue
		}
		late++
		d := maxTS - e.Time
		if d > oooMaxDelay {
			t.Fatalf("tuple at %d arrives %d ms behind the newest, more than %d", e.Time, d, oooMaxDelay)
		}
		if d > scottyWM.Lag {
			pastLag++
		}
	}
	if oooMaxDelay >= scottyWM.Lag+scottyLateness {
		t.Errorf("delay bound %d reaches lag+lateness %d: tuples would be dropped", oooMaxDelay, scottyWM.Lag+scottyLateness)
	}
	if share := float64(late) / float64(len(events)); share < 0.10 || share > 0.25 {
		t.Errorf("%.3f of the tuples arrive out of order, want about 0.2", share)
	}
	if pastLag == 0 {
		t.Errorf("no tuple arrives behind the watermark lag: no update rows would occur")
	}
}

// The release events must be the ones stream.Prepare places the watermarks
// in front of.
func TestReleasesMatchPrepare(t *testing.T) {
	for _, w := range workloads {
		in := generate(w, 4, testTuples)
		var want []release
		event := 0
		for _, it := range stream.Prepare(scottyWM, in.events) {
			switch {
			case it.Kind == stream.KindEvent:
				event++
			case it.Watermark != stream.MaxTime:
				want = append(want, release{it.Watermark, event})
			}
		}
		if len(want) == 0 || len(want) != len(in.wms) {
			t.Fatalf("%s: %d watermarks, Prepare has %d", w.name, len(in.wms), len(want))
		}
		for i := range want {
			if in.wms[i] != want[i] {
				t.Fatalf("%s: watermark %d is %+v, Prepare says %+v", w.name, i, in.wms[i], want[i])
			}
		}
		if in.lastWM() != want[len(want)-1].wm {
			t.Errorf("%s: lastWM %d, want %d", w.name, in.lastWM(), want[len(want)-1].wm)
		}
		for _, c := range []struct {
			end  int64
			want int
		}{
			{want[0].wm + 1, want[0].event},    // released by the first watermark
			{want[0].wm + 2, want[1].event},    // just past it: the next one
			{want[len(want)-1].wm + 2, -1},     // only the closing drain
			{want[0].wm - 5000, want[0].event}, // long closed
		} {
			if got := in.releaseEvent(c.end); got != c.want {
				t.Errorf("%s: releaseEvent(%d) = %d, want %d", w.name, c.end, got, c.want)
			}
		}
	}
}

// The open-loop bursts must be cut so that every release event is the last
// line of its burst, whatever the seed: the latency of the rows it releases
// is then the time scotty takes for a whole burst.
func TestReleaseEventsEndTheirBursts(t *testing.T) {
	for _, w := range workloads {
		if w.rate == 0 {
			continue
		}
		in := generate(w, 6, testTuples)
		first := in.burstFirst()
		if first < 1 || first > w.burst {
			t.Fatalf("%s: first burst of %d lines, bursts are %d", w.name, first, w.burst)
		}
		if len(in.wms) < 5 {
			t.Fatalf("%s: only %d watermarks in %d tuples", w.name, len(in.wms), testTuples)
		}
		for _, r := range in.wms {
			if r.event+1 < len(in.events) && burstOf(r.event+1, first, w.burst) != burstOf(r.event, first, w.burst)+1 {
				t.Fatalf("%s: release event %d is not the last line of burst %d", w.name, r.event, burstOf(r.event, first, w.burst))
			}
		}
		if got := burstOf(first-1, first, w.burst); got != 0 {
			t.Errorf("line %d is in burst %d, want 0", first-1, got)
		}
		if got := burstOf(first+w.burst, first, w.burst); got != 2 {
			t.Errorf("line %d is in burst %d, want 2", first+w.burst, got)
		}
	}
}
