package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// The benchmark runs from the repository root: it builds ./cmd/scotty and
// writes under .bench_build/ and bench/out/.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func lastLine(t *testing.T, out []byte) result {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

// Smoke: build the child, feed it over a pipe, parse its rows, check them
// against the oracle and print the report, for every workload.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs scotty")
	}
	for _, w := range workloads {
		var out, errOut bytes.Buffer
		if code := run([]string{"-smoke", "-workload", w.name, "-trace", "0"}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", w.name, code, out.String(), errOut.String())
		}
		res := lastLine(t, out.Bytes())
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: %+v", w.name, res)
		}
		for _, e := range e2eMetrics {
			if m, ok := res.Metrics[e.name]; !ok || m.Unit != e.unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w.name, e.name, m, e.unit)
			}
		}
		if len(res.Metrics) != len(e2eMetrics) {
			t.Errorf("%s: %d metrics printed, %d declared", w.name, len(res.Metrics), len(e2eMetrics))
		}
	}
}

// The traced run must print exactly the declared per-layer metrics and
// leave its spans behind.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs scotty")
	}
	w := workloads[1]
	var out, errOut bytes.Buffer
	if code := run([]string{"-smoke", "-workload", w.name, "-trace", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	res := lastLine(t, out.Bytes())
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("%+v", res)
	}
	for _, l := range layerMetrics {
		if m, ok := res.Metrics[l.name]; !ok || m.Unit != l.unit {
			t.Errorf("per-layer metric %s = %+v, want unit %s", l.name, m, l.unit)
		}
	}
	if len(res.Metrics) != len(layerMetrics) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(layerMetrics))
	}
	if res.Metrics["core.dropped"].Value != 0 || res.Metrics["engine.accounting_ok"].Value != 1 {
		t.Errorf("core.dropped %v, engine.accounting_ok %v", res.Metrics["core.dropped"].Value, res.Metrics["engine.accounting_ok"].Value)
	}
	if _, err := os.Stat("bench/out/trace-" + w.name + ".json"); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}

// A wrong expectation must fail a real child run, not only synthetic rows.
func TestTamperedExpectationFailsChild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs scotty")
	}
	p, _, err := setUp(workloads[0], 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range p.want {
		v.value++
		p.want[k] = v
		break
	}
	r, err := measureOnce(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.verdict.wrong != 1 || r.verdict.failed() != 1 {
		t.Errorf("verdict %+v, want exactly one wrong window", r.verdict)
	}
}

// BENCHMARK.json is generated from the tables in this package and must not
// drift from them.
func TestManifestMatchesTables(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `sh bench/run.sh -manifest`")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
}
