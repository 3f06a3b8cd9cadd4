package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

// Fixed offered rates of the open-loop phases, in requests per second.
// They are constants — never derived at run time — set well below what
// one sender can sustain on the reference 2-vCPU machine, so latency
// measures service time rather than queueing that amplifies noise.
const (
	spoRate = 400.0
	swRate  = 80.0
)

// Nominal closed-loop throughputs, used only to size the saturated
// phase to roughly its share of the run; the metric is what completes.
const (
	spoSatNominal = 2400.0
	swSatNominal  = 540.0
)

// Tail quantile of the serve workloads, printed beside the p99 but not
// gated on: on the reference 2-vCPU VM the p90 of ten seeds spread by
// 7-45% of its median, and the p99 by 9-74%, up to and beyond the
// largest bound a metric may have.
const (
	spoTail = 0.9
	swTail  = 0.9
)

// checkEvery: every checkEvery-th request of the checked kind is compared
// with a reference computed outside the daemon.
const checkEvery = 8

// How many times a run performs its set-up; setup_s is the median. The
// counts keep the timed set-ups near half a second or more, so that the
// median is steady: on the reference 2-vCPU machine a daemon build takes
// about 1 s on serve-predict-observe and 25 ms on serve-wait, and an
// input generation about 5 ms on paper-repro. The machine's speed
// switches between states lasting about a second (other tenants), so a
// run spreads its set-ups over its phases rather than timing them back
// to back: spoPerPhase or swPerPhase before each measured phase, the rest
// after the last.
const (
	spoSetups   = 6
	spoPerPhase = 2
	swSetups    = 25
	swPerPhase  = 8
	reproSetups = 100
)

// openShare of a run's --seconds goes to the open-loop phase, the rest to
// the closed-loop (saturated) phase. The closed loop's throughput varies
// more from run to run than the open loop's medians (over ten seeds, 0.14
// of its median against 0.07 with 7 s of closed loop per run), so it gets
// the larger share it needs.
const openShare = 0.5

// e2e is one workload's end-to-end measurements.
type e2e struct {
	names     [2]string // the workload's two timed operations
	a, b      summary
	dists     [2]dist // the samples behind a and b
	saturated float64 // completed requests (or regenerations) per second
	satN      int
	attempted int
	failed    int // non-2xx, refused, or wrong outputs
	setup     []float64
	peakRSS   float64 // MB; on the serve workloads, above the generated inputs
	rssDetail string
	late      summary
	record    []kv

	// The factors timings are reported at (calib.go): a and b are
	// multiplied by abScale, setup_s by setupScale, saturated_rps divided
	// by satScale. scaleBasis says how they were found.
	abScale, satScale, setupScale float64
	scaleBasis                    string
}

type kv struct {
	k string
	v interface{}
}

func (r *e2e) addRecord(k string, v interface{}) { r.record = append(r.record, kv{k, v}) }

// setup builds the daemon as a set-up does — open the store, warm it,
// listen — and records the build's wall time. Only one daemon is alive at
// a time, so an idle one's heap never slows the one being measured. The
// inputs are generated once beforehand: they are the benchmark's work,
// not the daemon's.
type setup struct {
	nodes int
	warm  []*workload.Job
	n     int // builds to time
	times []float64
	steal stealMeter // over the timed builds
}

// build times k builds and returns the last daemon; the others are
// closed at once.
func (s *setup) build(tmp string, k int) (*daemon, error) {
	for ; k > 1; k-- {
		d, err := s.buildOne(tmp)
		if err != nil {
			return nil, err
		}
		if err := d.close(); err != nil {
			return nil, err
		}
	}
	return s.buildOne(tmp)
}

// buildOne builds one daemon with its store in a fresh directory under
// tmp. It first collects the garbage earlier phases left, so every build
// starts from the same heap state.
func (s *setup) buildOne(tmp string) (*daemon, error) {
	runtime.GC()
	var d *daemon
	var err error
	var took time.Duration
	s.steal.during(func() {
		start := time.Now()
		d, err = startDaemon(filepath.Join(tmp, fmt.Sprintf("store-%d", len(s.times))), s.nodes, s.warm)
		took = time.Since(start)
	})
	if err != nil {
		return nil, err
	}
	s.times = append(s.times, took.Seconds())
	return d, nil
}

// rest builds and discards daemons until n builds are timed.
func (s *setup) rest(tmp string) error {
	for len(s.times) < s.n {
		d, err := s.buildOne(tmp)
		if err != nil {
			return err
		}
		if err := d.close(); err != nil {
			return err
		}
	}
	return nil
}

// runSPO measures serve-predict-observe.
func runSPO(seed int64, seconds float64, tmp string) (*e2e, error) {
	genStart := time.Now()
	in, err := makeSPO(spoTraceSeed)
	if err != nil {
		return nil, err
	}
	genS := time.Since(genStart).Seconds()
	rss, err := resetPeakRSS()
	if err != nil {
		return nil, err
	}
	r := &e2e{names: [2]string{"predict", "observe"}}
	var open, closed stealMeter
	su := &setup{nodes: in.nodes, warm: in.warm, n: spoSetups}
	d, err := su.build(tmp, spoPerPhase)
	if err != nil {
		return nil, err
	}
	cats, points := d.store.Categories(), d.store.Points()

	// Open loop: one sender, so requests reach the daemon in trace order
	// and every checked predict sees exactly the observes before it.
	nOpen := int(math.Min(float64(len(in.ops)), seconds*openShare*spoRate))
	checked := make([]bool, nOpen)
	var predicts int
	for i := 0; i < nOpen; i++ {
		if in.ops[i].kind == kindPredict {
			checked[i] = predicts%checkEvery == 0
			predicts++
		}
	}
	runtime.GC() // start the phase from the same heap state in every run
	c := newClient(d.url)
	var res []result
	open.during(func() {
		res = openLoop(nOpen, spoRate, 1, c.sender(in.ops), func(i int) bool { return checked[i] })
	})
	c.close()
	storeErrs := d.storeErrs.Load()
	if err := d.close(); err != nil {
		return nil, err
	}
	per, late, failed := endpointDists(in.ops, res, 2)
	wrong, nChecked := checkSPO(in, res, checked)
	r.dists = [2]dist{per[0], per[1]}
	r.a, r.b, r.late = summarize(per[kindPredict], spoTail), summarize(per[kindObserve], spoTail), summarize(late, 0.99)

	// Closed loop: the same mix from two connections, as fast as the
	// daemon completes it, on freshly warmed daemons. The requests are
	// split into closed runs that each replay the trace from its start on
	// a daemon of their own, so that no daemon is sent an observe twice.
	nClosed := int(seconds * (1 - openShare) * spoSatNominal)
	closedRuns := (nClosed + len(in.ops) - 1) / len(in.ops)
	perRun := nClosed / closedRuns
	nClosed = perRun * closedRuns
	var elapsed time.Duration
	var satFailed int
	for i := 0; i < closedRuns; i++ {
		if d, err = su.build(tmp, spoPerPhase); err != nil {
			return nil, err
		}
		c2 := newClient(d.url)
		closed.during(func() {
			took, failed := closedLoop(perRun, 2, c2.sender(in.ops))
			elapsed += took
			satFailed += failed
		})
		c2.close()
		storeErrs += d.storeErrs.Load()
		if err := d.close(); err != nil {
			return nil, err
		}
	}
	r.saturated, r.satN = float64(nClosed)/elapsed.Seconds(), nClosed
	if err := su.rest(tmp); err != nil {
		return nil, err
	}
	r.setup = su.times
	r.setUnstolen(open, closed, su.steal)
	if r.peakRSS, err = peakGrowthMB(rss); err != nil {
		return nil, err
	}
	r.rssDetail = fmt.Sprintf("VmHWM above the %.1f MB resident after input generation", rss)
	// The run seed's input is generated only now, so that it is not in the
	// heap, and not in peak_rss_mb, while the timed phases run.
	chk, err := makeSPO(seed)
	if err != nil {
		return nil, err
	}
	seedWrong, seedChecked, seedFailed, err := checkSeedSPO(chk, tmp)
	if err != nil {
		return nil, err
	}
	r.attempted = nOpen + nClosed + spoSeedOps
	r.failed = failed + satFailed + wrong + int(storeErrs) + seedWrong + seedFailed
	r.addRecord("generate_s", genS)
	r.addRecord("trace", in.trace)
	r.addRecord("scale", spoScale)
	r.addRecord("compression", 1)
	r.addRecord("trace_seed", spoTraceSeed)
	r.addRecord("seed", seed)
	r.addRecord("warm_jobs", len(in.warm))
	r.addRecord("predict_observe_ratio", ratio(countKind(in.ops[:nOpen], kindPredict), countKind(in.ops[:nOpen], kindObserve)))
	r.addRecord("predict_body_bytes", bodySizes(in.ops, kindPredict))
	r.addRecord("observe_body_bytes", bodySizes(in.ops, kindObserve))
	r.addRecord("categories_after_warm", cats)
	r.addRecord("points_after_warm", points)
	r.addRecord("offered_rps", spoRate)
	r.addRecord("open_requests", nOpen)
	r.addRecord("closed_requests", nClosed)
	r.addRecord("closed_runs", closedRuns)
	r.addRecord("checked_predicts", nChecked)
	r.addRecord("wrong_predicts", wrong)
	r.addRecord("seed_requests", spoSeedOps)
	r.addRecord("seed_checked_predicts", seedChecked)
	r.addRecord("seed_wrong_predicts", seedWrong)
	return r, nil
}

// spoSeedOps is how many requests of the run seed's trace
// serve-predict-observe sends, untimed, for its exactness check.
const spoSeedOps = 2400

// checkSeedSPO builds a daemon warmed with the run seed's trace (untimed;
// not a set-up), sends the first spoSeedOps requests of its second half
// in order from one connection, and checks every checkEvery-th predict
// as the open loop's are checked. It returns the wrong and checked
// predicts and the requests that failed.
func checkSeedSPO(in *spoInput, tmp string) (wrong, n, failed int, err error) {
	d, err := startDaemon(filepath.Join(tmp, "store-seed"), in.nodes, in.warm)
	if err != nil {
		return 0, 0, 0, err
	}
	c := newClient(d.url)
	res := make([]result, spoSeedOps)
	checked := make([]bool, spoSeedOps)
	var predicts int
	for i := range res {
		o := in.ops[i]
		if o.kind == kindPredict {
			checked[i] = predicts%checkEvery == 0
			predicts++
		}
		body, ok := c.post(o.path, o.body)
		res[i] = result{ok: ok, body: body}
		if !ok {
			failed++
		}
	}
	c.close()
	failed += int(d.storeErrs.Load())
	if err := d.close(); err != nil {
		return 0, 0, 0, err
	}
	wrong, n = checkSPO(in, res, checked)
	return wrong, n, failed, nil
}

// checkSPO replays the open loop's observes, in order, into a batch-mode
// reference predictor and compares every checked /v1/predict response
// with the reference's PredictDetailed at that point.
func checkSPO(in *spoInput, res []result, checked []bool) (wrong, n int) {
	ref := core.New(templates())
	for _, j := range in.warm {
		ref.Observe(j)
	}
	for i := range checked {
		j := in.jobs[i]
		if in.ops[i].kind == kindObserve {
			ref.Observe(j)
			continue
		}
		if !checked[i] {
			continue
		}
		n++
		if !predictMatches(res[i].body, ref, j) {
			wrong++
		}
	}
	return wrong, n
}

func predictMatches(body []byte, ref *core.Predictor, j *workload.Job) bool {
	var got service.PredictResponse
	if json.Unmarshal(body, &got) != nil {
		return false
	}
	want, ok := ref.PredictDetailed(j, 0)
	return samePrediction(got, want, ok, j)
}

func samePrediction(got service.PredictResponse, want core.Prediction, ok bool, j *workload.Job) bool {
	if got.OK != ok {
		return false
	}
	if !ok {
		return got.Seconds == j.MaxRunTime
	}
	return got.Seconds == want.Seconds && got.Template == want.Template &&
		got.Points == want.N && got.Interval == want.Interval //lint:allow floatcmp the service must return the reference's interval bit for bit
}

// setUnstolen sets a serve workload's scales to the share of CPU time
// the hypervisor left the machine during each timing's phase (calib.go).
func (r *e2e) setUnstolen(open, closed, setups stealMeter) {
	r.abScale, r.satScale, r.setupScale = open.unstolen(), closed.unstolen(), setups.unstolen()
	r.scaleBasis = fmt.Sprintf("1 - the steal share: open loop %.4f, closed loop %.4f, set-ups %.4f",
		1-r.abScale, 1-r.satScale, 1-r.setupScale)
}

// runSW measures serve-wait.
func runSW(seed int64, seconds float64, tmp string) (*e2e, error) {
	genStart := time.Now()
	in, err := makeSW()
	if err != nil {
		return nil, err
	}
	genS := time.Since(genStart).Seconds()
	rss, err := resetPeakRSS()
	if err != nil {
		return nil, err
	}
	r := &e2e{names: [2]string{"wait", "batch"}}
	var open, closed stealMeter
	su := &setup{nodes: in.nodes, warm: in.warm, n: swSetups}
	d, err := su.build(tmp, swPerPhase)
	if err != nil {
		return nil, err
	}
	cats, points := d.store.Categories(), d.store.Points()

	// Open and closed loops run whole passes of the snapshot list, so
	// every run weighs every snapshot equally. The daemon is read-only here, so
	// two senders are safe.
	cycles := int(math.Max(1, math.Floor(seconds*openShare*swRate/float64(len(in.ops)))))
	nOpen := cycles * len(in.ops)
	checked := func(i int) bool { return (i/2)%checkEvery == 0 && i < len(in.ops) }
	runtime.GC() // start the phase from the same heap state in every run
	c := newClient(d.url)
	var res []result
	open.during(func() { res = openLoop(nOpen, swRate, 2, c.sender(in.ops), checked) })
	c.close()
	if err := d.close(); err != nil {
		return nil, err
	}
	per, late, failed := endpointDists(in.ops, res, 2)
	ref := core.New(templates())
	for _, j := range in.warm {
		ref.Observe(j)
	}
	var wrong, nChecked int
	for i := 0; i < len(in.ops) && i < nOpen; i++ {
		if !checked(i) {
			continue
		}
		nChecked++
		if !swMatches(in.ops[i].kind, res[i].body, ref, in.snaps[i/2], in.nodes) {
			wrong++
		}
	}
	r.dists = [2]dist{per[0], per[1]}
	r.a, r.b, r.late = summarize(per[kindWait], swTail), summarize(per[kindBatch], swTail), summarize(late, 0.99)

	passes := int(math.Max(2, math.Floor(seconds*(1-openShare)*swSatNominal/float64(len(in.ops)))))
	nClosed := passes * len(in.ops)
	if d, err = su.build(tmp, swPerPhase); err != nil {
		return nil, err
	}
	c2 := newClient(d.url)
	var elapsed time.Duration
	var satFailed int
	closed.during(func() { elapsed, satFailed = closedLoop(nClosed, 2, c2.sender(in.ops)) })
	c2.close()
	if err := d.close(); err != nil {
		return nil, err
	}
	r.saturated, r.satN = float64(nClosed)/elapsed.Seconds(), nClosed
	if err := su.rest(tmp); err != nil {
		return nil, err
	}
	r.setup = su.times
	r.setUnstolen(open, closed, su.steal)
	if r.peakRSS, err = peakGrowthMB(rss); err != nil {
		return nil, err
	}
	r.rssDetail = fmt.Sprintf("VmHWM above the %.1f MB resident after input generation", rss)

	// The run seed's snapshots are generated only now, so that they are
	// not in the heap, and not in peak_rss_mb, while the timed phases run.
	// They go untimed to a daemon warmed like the timed ones.
	checks, err := swSnapshotsChecked(seed)
	if err != nil {
		return nil, err
	}
	cops := swOps(checks)
	if d, err = startDaemon(filepath.Join(tmp, "store-seed"), in.nodes, in.warm); err != nil {
		return nil, err
	}
	c3 := newClient(d.url)
	for i, o := range cops {
		body, ok := c3.post(o.path, o.body)
		nChecked++
		if !ok || !swMatches(o.kind, body, ref, checks[i/2], in.nodes) {
			wrong++
		}
	}
	c3.close()
	if err := d.close(); err != nil {
		return nil, err
	}
	r.attempted = nOpen + len(cops) + nClosed
	r.failed = failed + satFailed + wrong

	depths := make([]float64, len(in.snaps))
	for i, s := range in.snaps {
		depths[i] = float64(len(s.queue))
	}
	r.addRecord("generate_s", genS)
	r.addRecord("trace", in.trace)
	r.addRecord("scale", swScale)
	r.addRecord("compression", swCompress)
	r.addRecord("trace_seed", swTraceSeed)
	r.addRecord("seed", seed)
	r.addRecord("warm_jobs", len(in.warm))
	r.addRecord("snapshots", len(in.snaps))
	r.addRecord("queue_depth", quantiles(depths))
	r.addRecord("wait_body_bytes", bodySizes(in.ops, kindWait))
	r.addRecord("batch_body_bytes", bodySizes(in.ops, kindBatch))
	r.addRecord("categories_after_warm", cats)
	r.addRecord("points_after_warm", points)
	r.addRecord("offered_rps", swRate)
	r.addRecord("open_passes", cycles)
	r.addRecord("open_requests", nOpen)
	r.addRecord("closed_requests", nClosed)
	r.addRecord("seed_snapshots_checked", len(checks))
	r.addRecord("checked_requests", nChecked)
	r.addRecord("wrong_responses", wrong)
	return r, nil
}

// swMatches compares a predictwait response with a direct
// waitpred.PredictStart on the same snapshot, or a batch response with
// the reference's PredictDetailedBatch on the snapshot's queue.
func swMatches(kind int, body []byte, ref *core.Predictor, s snapshot, nodes int) bool {
	if kind == kindWait {
		var got service.PredictWaitResponse
		if json.Unmarshal(body, &got) != nil {
			return false
		}
		start, err := waitpred.PredictStart(s.now, s.target, s.queue, s.running, nodes,
			sched.Backfill{}, ref, predict.MaxRuntime{}, 0)
		return err == nil && got.StartSeconds == start && got.WaitSeconds == start-s.target.SubmitTime
	}
	var got service.PredictBatchResponse
	if json.Unmarshal(body, &got) != nil || len(got.Results) != len(s.queue) {
		return false
	}
	items := make([]core.BatchItem, len(s.queue))
	for i, q := range s.queue {
		items[i] = core.BatchItem{Job: q}
	}
	for i, br := range ref.PredictDetailedBatch(items) {
		if !samePrediction(got.Results[i], br.Prediction, br.OK, s.queue[i]) {
			return false
		}
	}
	return true
}

func countKind(ops []op, kind int) int {
	var n int
	for _, o := range ops {
		if o.kind == kind {
			n++
		}
	}
	return n
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// bodySizes is the p50/p90/max of one endpoint's request body sizes.
func bodySizes(ops []op, kind int) map[string]float64 {
	var s []float64
	for _, o := range ops {
		if o.kind == kind {
			s = append(s, float64(len(o.body)))
		}
	}
	return quantiles(s)
}

func quantiles(vs []float64) map[string]float64 {
	s := append([]float64(nil), vs...)
	if len(s) == 0 {
		return nil
	}
	sort.Float64s(s)
	p90, _ := percentile(s, 0.9)
	return map[string]float64{"p50": median(s), "p90": p90, "max": s[len(s)-1]}
}
