package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a summary may report, lowest first.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// summary is how a timing is reported: the median, and the highest
// percentile of tailLadder that still has at least ten samples beyond it,
// with the sample count stated. Below 100 samples no tail is supported and
// tailPct is 0.
type summary struct {
	n       int
	median  float64
	tailPct float64
	tail    float64
}

func summarize(samples []float64) summary {
	s := sorted(samples)
	sum := summary{n: len(s), median: quantile(s, 50)}
	for _, p := range tailLadder {
		if float64(len(s))*(100-p)/100 >= 10 {
			sum.tailPct, sum.tail = p, quantile(s, p)
		}
	}
	return sum
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank percentile p (0..100) of sorted samples.
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(s))-1e-9)) - 1 // 99.9/100*12000 is 11988.000000000002
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(samples []float64) float64 { return quantile(sorted(samples), 50) }

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so spreads
// computed here match the ones the acceptance check computes.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	s := sorted(samples)
	at := func(k int) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
