package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

func TestParseRow(t *testing.T) {
	for _, c := range []struct {
		line string
		want row
	}{
		{"[1000, 11000)\t n=20000\t 9.98527e+06", row{winKey{0, 0, 1000, 11000}, winVal{20000, 9.98527e+06}, false}},
		{"q17\t[0, 18000)\t n=360\t 999  (update)", row{winKey{0, 17, 0, 18000}, winVal{360, 999}, true}},
		{"k4711\t[5000, 10000)\t n=3\t 1204", row{winKey{4711, 0, 5000, 10000}, winVal{3, 1204}, false}},
		{"k9\tq2\t[0, 5000)\t n=0\t 0  (update)", row{winKey{9, 2, 0, 5000}, winVal{0, 0}, true}},
	} {
		got, err := parseRow([]byte(c.line))
		if err != nil || got != c.want {
			t.Errorf("parseRow(%q) = %+v, %v; want %+v", c.line, got, err, c.want)
		}
	}
	for _, line := range []string{"", "hello", "[1, 2) n=3 4", "[1, 2)\t n=x\t 4", "q\t[1, 2)\t n=3\t 4", "[1, 2)\t n=3\t four"} {
		if _, err := parseRow([]byte(line)); err == nil {
			t.Errorf("parseRow(%q) accepted a malformed row", line)
		}
	}
}

// perfectRows renders the expectations back as the rows scotty would print.
func perfectRows(want map[winKey]winVal) []row {
	rows := make([]row, 0, len(want))
	for k, v := range want {
		rows = append(rows, row{k, v, false})
	}
	return rows
}

// One flipped value and one flipped window bound must each show up in the
// failed share and turn the exit code non-zero.
func TestOracleCatchesFlips(t *testing.T) {
	in := generate(workloads[0], 1, 100000)
	want := expectations(in)
	if len(want) < 10 {
		t.Fatalf("only %d windows expected", len(want))
	}
	if v := check(want, perfectRows(want), in.lastWM(), 0); v.failed() != 0 {
		t.Fatalf("perfect rows failed: %+v", v)
	}

	rows := perfectRows(want)
	rows[3].value++
	if v := check(want, rows, in.lastWM(), 0); v.wrong != 1 || v.failed() != 1 {
		t.Errorf("flipped value: %+v, want exactly one wrong window", v)
	}

	rows = perfectRows(want)
	rows[5].end++
	v := check(want, rows, in.lastWM(), 0)
	if v.missing != 1 || v.failed() < 1 {
		t.Errorf("flipped bound: %+v, want the original window missing", v)
	}

	// An update row supersedes the first emission.
	rows = perfectRows(want)
	bad := rows[0]
	bad.value--
	rows = append([]row{bad}, rows...)
	if v := check(want, rows, in.lastWM(), 0); v.failed() != 0 {
		t.Errorf("a superseded first emission counted as a failure: %+v", v)
	}

	res := newResult()
	res.Attempted, res.Failed = v.expected, v.failed()
	res.Correct = res.Failed == 0
	res.set("failed_share", float64(res.Failed)/float64(res.Attempted), "ratio")
	var out bytes.Buffer
	if code := finish(res, &out, io.Discard); code == 0 {
		t.Errorf("a run with %d failed windows exited 0", res.Failed)
	}
	var printed result
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &printed); err != nil || printed.Correct || printed.Failed == 0 {
		t.Errorf("result line %q: %v", out.String(), err)
	}

	if v := failAll(want, "exit status 1"); v.failed() != len(want) {
		t.Errorf("a failed child must fail every window, got %d of %d", v.failed(), len(want))
	}
}
