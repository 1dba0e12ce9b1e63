package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative _bucket/_sum/_count series. Metrics appear in registration
// order, so the output is deterministic for a given update history.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	r.each(func(m *metric) {
		switch m.kind {
		case kindCounter:
			pf("# TYPE %s counter\n%s %d\n", m.name, m.fullName(), m.c.Value())
		case kindGauge:
			pf("# TYPE %s gauge\n%s %d\n", m.name, m.fullName(), m.g.Value())
		case kindHistogram:
			pf("# TYPE %s histogram\n", m.name)
			counts := m.h.BucketCounts()
			var cum int64
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(m.h.bounds) {
					le = formatValue(m.h.bounds[i])
				}
				pf("%s %d\n", seriesName(m.name+"_bucket", mergeLabels(m.labels, L("le", le))), cum)
			}
			pf("%s %s\n", seriesName(m.name+"_sum", m.labels), formatValue(m.h.Sum()))
			pf("%s %d\n", seriesName(m.name+"_count", m.labels), m.h.Count())
		}
	})
	return err
}

// MetricJSON is one metric in the JSON rendering.
type MetricJSON struct {
	Name   string             `json:"name"`
	Type   string             `json:"type"`
	Value  *int64             `json:"value,omitempty"` // counters, gauges
	Count  *int64             `json:"count,omitempty"` // histograms
	Sum    *float64           `json:"sum,omitempty"`   // histograms
	Mean   *float64           `json:"mean,omitempty"`  // histograms
	Quants map[string]float64 `json:"quantiles,omitempty"`
}

// Snapshot returns a point-in-time JSON-ready view of every metric in
// registration order.
func (r *Registry) Snapshot() []MetricJSON {
	var out []MetricJSON
	r.each(func(m *metric) {
		mj := MetricJSON{Name: m.fullName()}
		switch m.kind {
		case kindCounter:
			mj.Type = "counter"
			v := m.c.Value()
			mj.Value = &v
		case kindGauge:
			mj.Type = "gauge"
			v := m.g.Value()
			mj.Value = &v
		case kindHistogram:
			mj.Type = "histogram"
			n, s, mean := m.h.Count(), m.h.Sum(), m.h.Mean()
			mj.Count, mj.Sum, mj.Mean = &n, &s, &mean
			mj.Quants = m.h.Quantiles()
		}
		out = append(out, mj)
	})
	return out
}

// WriteJSON renders the registry as a JSON document {"metrics": [...]}.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string][]MetricJSON{"metrics": r.Snapshot()})
}

// Handler returns an http.Handler serving the registry: the Prometheus text
// format by default, JSON when the request has ?format=json or an
// Accept: application/json header.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
