package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer, and the value is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// whether at least minBeyond samples lie above it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// dist is a pooled latency sample set, in milliseconds.
type dist struct {
	ms []float64
}

func (d *dist) add(v time.Duration) { d.ms = append(d.ms, float64(v)/1e6) }

func (d *dist) sorted() []float64 {
	s := append([]float64(nil), d.ms...)
	sort.Float64s(s)
	return s
}

// summary is the reported shape of one timed quantity: the median and a
// tail, with the sample count and which percentile the tail is.
type summary struct {
	n        int
	p50      float64
	tail     float64
	tailName string
}

// summarize reports the median and the q-quantile tail when the samples
// support it (minBeyond beyond it). Each workload fixes its q from the
// sample count its run produces; a run too short for its tail — the
// paper-repro workload times a handful of table regenerations — reports
// the slowest sample instead and says so.
func summarize(d dist, q float64) summary {
	s := d.sorted()
	out := summary{n: len(s)}
	if len(s) == 0 {
		return out
	}
	out.p50 = median(s)
	if v, ok := percentile(s, q); ok && q < 1 {
		out.tail, out.tailName = v, fmt.Sprintf("p%g", 100*q)
	} else {
		out.tail, out.tailName = s[len(s)-1], "max"
	}
	return out
}

// median of an ascending slice (mean of the middle pair for even n).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of vs and returns its median.
func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return median(s)
}
