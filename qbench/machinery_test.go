package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

// A stalled request delays the next one, which was due while the first
// was in flight: its latency must include that wait (counted from its due
// time), while its lateness shows how late the harness sent it.
func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	const stall = 30 * time.Millisecond
	send := func(i int) ([]byte, bool) {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil, true
	}
	// Op 1 is due 1 ms after op 0; one sender cannot start it for 30 ms.
	res := openLoop(2, 1000, 1, send, nil)
	if got := res[1].late; got < stall-2*time.Millisecond {
		t.Fatalf("op 1 sent %v late, want about %v", got, stall)
	}
	if res[1].lat < res[1].late {
		t.Fatalf("op 1 latency %v is below its lateness %v: measured from send, not due time", res[1].lat, res[1].late)
	}
	if own := res[1].lat - res[1].late; own > stall/2 {
		t.Fatalf("op 1's own service time %v should be near zero", own)
	}
}

// A sender that was idle and slept until the due time is timed from when
// it sent: its timer's overshoot is harness lateness, not latency.
func TestOpenLoopIdleSenderTimedFromSend(t *testing.T) {
	const work = 3 * time.Millisecond
	send := func(int) ([]byte, bool) {
		time.Sleep(work)
		return nil, true
	}
	// Ops 50 ms apart: the sender is idle before each one.
	res := openLoop(3, 20, 1, send, nil)
	for i, r := range res {
		if r.lat < work || r.lat > work+r.late+2*time.Millisecond {
			t.Errorf("op %d latency %v (late %v), want about %v", i, r.lat, r.late, work)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 samples above 990
		{999, 0.99, 990, false}, // only 9 above
		{21, 0.5, 11, true},     // the median needs 21 samples
		{20, 0.5, 10, true},     // 10 above 10
		{19, 0.5, 10, false},    // 9 above
		{500, 0.98, 490, true},  // exactly 10 above
		{100, 0.99, 99, false},  // one above
		{0, 0.5, 0, false},      // nothing to report
		{3, 1.0, 3, false},      // the maximum never has anything beyond
		{11, 0.0, 1, true},      // the minimum of 11 has 10 beyond
		{2000, 0.999, 1998, false},
	}
	for _, c := range cases {
		v, ok := percentile(mk(c.n), c.q)
		if v != c.want || ok != c.ok { //lint:allow floatcmp exact ranks of whole numbers
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	// summarize falls back to the maximum, and says so.
	var d dist
	for i := 1; i <= 50; i++ {
		d.add(time.Duration(i) * time.Millisecond)
	}
	s := summarize(d, 0.99)
	if s.tailName != "max" || s.tail != 50 || s.n != 50 { //lint:allow floatcmp 50 ms converts exactly
		t.Fatalf("summarize(50 samples, p99) = %+v, want the max, labelled", s)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 40, parent: 0}, // overlaps a: union 10-40
		{name: "c", start: 50, end: 60, parent: 0},
		{name: "c.child", start: 52, end: 58, parent: 3},
		{name: "d", start: 95, end: 120, parent: 0}, // clipped to the parent at 100
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 10 - 5, 20, 20, 4, 6, 25}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	// The same trees after an unrelated span: parents are absolute indices.
	shifted := []span{{name: "other", end: 5, parent: -1}}
	for _, s := range spans {
		if s.parent >= 0 {
			s.parent++
		}
		shifted = append(shifted, s)
	}
	dur, self, count := totals(shifted, 1)
	if dur["root"] != 100 || self["root"] != 55 || count["other"] != 0 {
		t.Fatalf("totals from index 1: dur %v self %v count %v", dur, self, count)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	var tick time.Duration
	r.now = func() time.Time { tick += time.Microsecond; return r.origin.Add(tick) }
	r.request()
	outer := r.begin("outer")
	inner := r.begin("inner")
	r.end(inner)
	r.end(outer)
	if r.spans[1].parent != outer || r.spans[0].parent != -1 || r.spans[1].req != 1 {
		t.Fatalf("spans %+v", r.spans)
	}
}

// The wrappers must count exactly the calls the simulators make: replay
// one wait prediction by hand and check the counts against the
// predictions and picks a second, independent count observes.
func TestWrappersCountPicksAndEstimates(t *testing.T) {
	jobs := []*workload.Job{
		{ID: 1, User: "u", Nodes: 4, MaxRunTime: 100, StartTime: 0},
		{ID: 2, User: "u", Nodes: 4, SubmitTime: 5, MaxRunTime: 50},
		{ID: 3, User: "v", Nodes: 2, SubmitTime: 6, MaxRunTime: 30},
	}
	running, queue := jobs[:1], jobs[1:]
	inner := &tally{}
	pol := &countingPolicy{inner: sched.Backfill{}, rec: newRecorder()}
	pred := &countingPredictor{inner: inner, pol: pol}
	start, err := waitpred.PredictStart(10, jobs[2], queue, running, 8, pol, pred, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := waitpred.PredictStart(10, jobs[2], queue, running, 8, sched.Backfill{}, &tally{}, nil, 0)
	if err != nil || bare != start {
		t.Fatalf("wrapped start %d, bare %d (%v): the wrappers changed the answer", start, bare, err)
	}
	if pred.estimates != inner.calls || pred.estimates == 0 {
		t.Fatalf("wrapper counted %d estimates, the predictor saw %d", pred.estimates, inner.calls)
	}
	if pol.picks == 0 || int64(len(pol.rec.spans)) != pol.picks {
		t.Fatalf("%d picks but %d pick spans", pol.picks, len(pol.rec.spans))
	}
	if pred.estimates <= int64(len(queue)+len(running)) {
		t.Fatalf("%d estimates: PredictStart estimates every job once before simulating, then the policy estimates more", pred.estimates)
	}
}

// tally is a predictor that counts its calls and predicts limits.
type tally struct{ calls int64 }

func (p *tally) Name() string { return "tally" }
func (p *tally) Predict(j *workload.Job, age int64) (int64, bool) {
	p.calls++
	return predict.MaxRuntime{}.Predict(j, age)
}
func (p *tally) Observe(*workload.Job) {}

// A run whose kernel took twice the reference time ran on a machine half
// the reference's speed: its timings are halved, its throughputs doubled.
func TestCalibrationSpeedIsReferenceOverMedian(t *testing.T) {
	c := calibration{samples: []float64{3 * calRef, 2 * calRef, 1.9 * calRef, 2 * calRef, 2.1 * calRef}}
	if got := c.speed(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("speed %v, want 0.5", got)
	}
	var m stealMeter
	if m.unstolen() != 1 { //lint:allow floatcmp nothing measured reads exactly 1
		t.Fatalf("unstolen share %v with nothing measured, want 1", m.unstolen())
	}
	m = stealMeter{steal: 5, total: 100}
	if got := m.unstolen(); math.Abs(got-0.95) > 1e-12 {
		t.Fatalf("unstolen share %v, want 0.95", got)
	}
	if calKernel() <= 0 {
		t.Fatal("the kernel took no time")
	}
}
