package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the recorder's origin; parent
// is the index of the enclosing span (-1 for a root) and req groups the
// spans of one replayed request.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int32
}

// recorder keeps spans in memory for one single-threaded replay and
// writes them out when the benchmark ends.
type recorder struct {
	origin time.Time
	now    func() time.Time
	spans  []span
	open   int32 // innermost open span, -1 when none
	req    int32
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), now: time.Now, open: -1}
}

// request starts a new request id; spans begun afterwards belong to it.
func (r *recorder) request() { r.req++ }

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(name string) int32 {
	r.spans = append(r.spans, span{
		name: name, start: r.now().Sub(r.origin).Nanoseconds(),
		parent: r.open, req: r.req,
	})
	r.open = int32(len(r.spans) - 1)
	return r.open
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int32) {
	r.spans[i].end = r.now().Sub(r.origin).Nanoseconds()
	r.open = r.spans[i].parent
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := spans[c].start, spans[c].end
			if lo < s.start {
				lo = s.start
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		for k, v := range ivs {
			switch {
			case k == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo <= curHi:
				if v.hi > curHi {
					curHi = v.hi
				}
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// totals sums durations and self times per span name over spans[first:],
// which must hold whole trees (every parent at or after first).
func totals(spans []span, first int) (dur, self map[string]int64, count map[string]int) {
	sub := append([]span(nil), spans[first:]...)
	for i := range sub {
		if sub[i].parent >= 0 {
			sub[i].parent -= int32(first)
		}
	}
	dur, self, count = map[string]int64{}, map[string]int64{}, map[string]int{}
	st := selfTimes(sub)
	for i, s := range sub {
		dur[s.name] += s.end - s.start
		self[s.name] += st[i]
		count[s.name]++
	}
	return dur, self, count
}

// writeSpans dumps spans as gzipped tab-separated lines:
// name, start ns, end ns, parent index, request id.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name\tstart_ns\tend_ns\tparent\treq")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.parent, s.req)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	if err := zw.Close(); err != nil {
		_ = f.Close() // the gzip error is the one worth reporting
		return err
	}
	return f.Close()
}
