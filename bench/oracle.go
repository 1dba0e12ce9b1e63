package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"scotty/internal/aggregate"
	"scotty/internal/reference"
	"scotty/internal/stream"
)

// winKey identifies one window of one query of one key.
type winKey struct {
	key        int32
	query      int
	start, end int64
}

type winVal struct {
	n     int64
	value float64
}

// expectations computes, from internal/reference alone, the final value of
// every non-empty window that a watermark closes before EOF. Empty windows
// are left out on both sides: scotty prints n=0 rows only for the spans an
// operator happens to exist over (a key's operator appears with its first
// tuple), which is not a property of the results.
func expectations(in *input) map[winKey]winVal {
	var f aggregate.Function[stream.Tuple, float64, float64]
	switch in.w.agg {
	case "sum":
		f = aggregate.Sum(stream.Val)
	case "max":
		f = aggregate.Max(stream.Val)
	default:
		panic("bench: no oracle for aggregate " + in.w.agg)
	}
	byKey := map[int32][]stream.Event[stream.Tuple]{}
	if in.w.keyed {
		for _, e := range in.events {
			byKey[e.Value.Key] = append(byKey[e.Value.Key], e)
		}
	} else {
		// Sorted once here, so the copy Finals sorts again per query is
		// already in order.
		byKey[0] = reference.Canonical(in.events)
	}
	type job struct {
		key    int32
		query  int
		events []stream.Event[stream.Tuple]
	}
	jobs := make(chan job)
	go func() {
		for key, events := range byKey {
			for qi := range in.w.queries {
				jobs <- job{key, qi, events}
			}
		}
		close(jobs)
	}()
	// The oracle is brute force (every window refolds its tuples), so it is
	// most of set-up on the fleet workload; its jobs are independent.
	want := map[winKey]winVal{}
	finalWM := in.lastWM()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				q := in.w.queries[j.query]
				rq := reference.Query[stream.Tuple]{Kind: reference.Periodic, Measure: stream.Time, Length: q.length, Slide: q.slide}
				finals := reference.Finals(f, rq, j.events, finalWM)
				mu.Lock()
				for _, fin := range finals {
					if fin.N > 0 {
						want[winKey{j.key, j.query, fin.Start, fin.End}] = winVal{fin.N, fin.Value}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return want
}

// row is one parsed scotty output line.
type row struct {
	winKey
	winVal
	update bool
}

var updateTag = []byte("  (update)")

// parseRow parses scotty's row formats:
//
//	[s, e)\t n=N\t V            single query
//	q<i>\t[s, e)\t n=N\t V      fleet member
//	k<key>\t[s, e)\t n=N\t V    keyed (k<key>\tq<i>\t... with several queries)
//
// each optionally followed by "  (update)".
func parseRow(line []byte) (row, error) {
	var r row
	bad := func(what string) (row, error) {
		return row{}, fmt.Errorf("malformed row (%s): %q", what, line)
	}
	if bytes.HasSuffix(line, updateTag) {
		r.update = true
		line = line[:len(line)-len(updateTag)]
	}
	rest := line
	field := func(prefix byte) (int64, bool) {
		tab := bytes.IndexByte(rest, '\t')
		if len(rest) == 0 || rest[0] != prefix || tab < 0 {
			return 0, false
		}
		v, err := strconv.ParseInt(string(rest[1:tab]), 10, 64)
		if err != nil {
			return 0, false
		}
		rest = rest[tab+1:]
		return v, true
	}
	if len(rest) > 0 && rest[0] == 'k' {
		k, ok := field('k')
		if !ok {
			return bad("key")
		}
		r.key = int32(k)
	}
	if len(rest) > 0 && rest[0] == 'q' {
		q, ok := field('q')
		if !ok {
			return bad("query")
		}
		r.query = int(q)
	}
	// [s, e)\t n=N\t V
	comma := bytes.Index(rest, []byte(", "))
	closing := bytes.Index(rest, []byte(")\t n="))
	if len(rest) == 0 || rest[0] != '[' || comma < 0 || closing < comma {
		return bad("bounds")
	}
	var err error
	if r.start, err = strconv.ParseInt(string(rest[1:comma]), 10, 64); err != nil {
		return bad("start")
	}
	if r.end, err = strconv.ParseInt(string(rest[comma+2:closing]), 10, 64); err != nil {
		return bad("end")
	}
	rest = rest[closing+len(")\t n="):]
	sep := bytes.Index(rest, []byte("\t "))
	if sep < 0 {
		return bad("count")
	}
	if r.n, err = strconv.ParseInt(string(rest[:sep]), 10, 64); err != nil {
		return bad("count")
	}
	if r.value, err = strconv.ParseFloat(string(rest[sep+2:]), 64); err != nil {
		return bad("value")
	}
	return r, nil
}

// verdict is the oracle's count for one child run.
type verdict struct {
	expected   int // windows the oracle expects
	missing    int
	unexpected int
	wrong      int
	malformed  int
	firstError string
}

func (v verdict) failed() int {
	f := v.missing + v.unexpected + v.wrong + v.malformed
	if f > v.expected {
		f = v.expected // a share, so at most every window failed
	}
	return f
}

func (v *verdict) note(format string, args ...any) {
	if v.firstError == "" {
		v.firstError = fmt.Sprintf(format, args...)
	}
}

// check compares scotty's rows with the expectations. The last row per
// window counts, so update rows supersede; rows of windows that only the
// closing drain flushes are provisional and skipped.
func check(want map[winKey]winVal, rows []row, lastWM int64, malformed int) verdict {
	v := verdict{expected: len(want), malformed: malformed}
	got := make(map[winKey]winVal, len(want))
	for _, r := range rows {
		if r.end-1 > lastWM {
			continue
		}
		got[r.winKey] = r.winVal
	}
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			v.missing++
			v.note("missing window %+v", k)
		case g != w:
			v.wrong++
			v.note("window %+v: got n=%d value=%v, want n=%d value=%v", k, g.n, g.value, w.n, w.value)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok && g.n > 0 {
			v.unexpected++
			v.note("unexpected window %+v", k)
		}
	}
	return v
}

// failAll is the verdict of a child that exited non-zero: nothing it printed
// is trusted.
func failAll(want map[winKey]winVal, why string) verdict {
	return verdict{expected: len(want), missing: len(want), firstError: why}
}
