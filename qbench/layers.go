package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/histstore"
	"repro/internal/obs"
	"repro/internal/obs/accuracy"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

// Replay sizes of the traced run's rungs. The counts and the inputs are
// fixed, so every count metric repeats exactly, except go.gc_cycles:
// the collector's pacing follows how the concurrent senders' allocations
// interleave, so it can differ by a cycle.
const (
	rungOps     = 3000 // serve-predict-observe ops replayed per rung
	allocCalls  = 400  // calls per allocation-count pass
	getBatch    = 64   // store probes timed together (one probe is ~100 ns)
	getBatches  = 400
	recordBatch = 32 // accuracy records timed together
	recordCalls = 32 * 400
	loopbackSPO = 2000 // ops per loopback phase
	loopbackSW  = 400
	transportN  = 1000 // no-op round trips per body shape
)

// layers is the traced run's result: the per-layer metrics plus the
// run's own validity (every rung call succeeded, every count repeated).
type layers struct {
	m         map[string]metric
	inProc    map[string][]time.Duration // in-process handler time per op index, by label
	notes     []string
	attempted int
	failed    int
}

func (l *layers) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

func (l *layers) fail(format string, args ...interface{}) {
	l.failed++
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

func (l *layers) output() output {
	return output{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: l.m}
}

// runLayers is the traced run. It replays the end-to-end runs' timed
// inputs — all three workloads', which do not depend on the seed —
// through each layer's public functions, timing every call with spans
// recorded on the benchmark's side, and measures the Go runtime and the
// harness on the named workload's own phase. Every workload reports
// every per-layer metric; on a workload where a layer is idle, its
// metric still describes that layer on the same inputs.
func runLayers(name string, seed int64, tmp, spansPath string) (*layers, error) {
	l := &layers{m: map[string]metric{}, inProc: map[string][]time.Duration{}}
	rec := newRecorder()
	spo, err := makeSPO(spoTraceSeed)
	if err != nil {
		return nil, err
	}
	sw, err := makeSW()
	if err != nil {
		return nil, err
	}
	// withDaemon runs f on a freshly warmed daemon and closes it on every
	// path.
	withDaemon := func(tag string, nodes int, warm []*workload.Job, f func(*daemon) error) error {
		d, err := openDaemon(filepath.Join(tmp, tag), nodes)
		if err != nil {
			return err
		}
		d.warm(warm)
		ferr := f(d)
		if cerr := d.close(); ferr == nil {
			ferr = cerr
		}
		return ferr
	}
	// The Go runtime is read across the named workload's own phase.
	var rt runtimeReading
	phase := func(w string, f func() error) error {
		if name == w {
			rt = readRuntime()
		}
		err := f()
		if name == w {
			l.setRuntime(rt, readRuntime())
		}
		return err
	}

	// Rungs 1-3: the service handler, core, and histstore on
	// serve-predict-observe's stream.
	if err := withDaemon("service-po", spo.nodes, spo.warm, func(d *daemon) error {
		l.serviceRungPO(d, spo, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := withDaemon("core-po", spo.nodes, spo.warm, func(d *daemon) error {
		l.coreRungPO(d, spo, rec)
		return l.storeRung(d, tmp, rec)
	}); err != nil {
		return nil, err
	}
	l.accuracyRung(spo, rec)

	// Rungs 4-6 on serve-wait's snapshots and the paper's cells — the
	// handler, waitpred and sched, then sim and exp — each wrapped rung
	// traced and untraced for the overhead. Then the loopback phases of
	// both serve mixes: the rung gaps and the harness's validity.
	var poRes, swRes []result
	err = withDaemon("service-wait", sw.nodes, sw.warm, func(d *daemon) error {
		l.serviceRungWait(d, sw, rec)
		traced, untraced := l.waitRung(d, sw, rec)
		t2, u2, err := l.simRung(rec)
		if err != nil {
			return err
		}
		l.set("trace.overhead_share", (traced+t2)/(untraced+u2)-1, "share")
		if err := l.expRung(rec); err != nil {
			return err
		}
		if err := withDaemon("loop-po", spo.nodes, spo.warm, func(po *daemon) error {
			return phase("serve-predict-observe", func() (err error) {
				poRes, err = l.loopback(po, spo.ops, loopbackSPO, spoRate, 1, kindPredict, "predict")
				return err
			})
		}); err != nil {
			return err
		}
		return phase("serve-wait", func() (err error) {
			swRes, err = l.loopback(d, sw.ops, loopbackSW, swRate, 2, kindWait, "wait")
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	if err := phase("paper-repro", func() error {
		_, _, got, err := regenerate(exp.Config{Scale: reproScale, Seed: goldenSeed})
		if err == nil && got != goldenDigest {
			l.fail("paper-repro: golden digest mismatch")
		}
		return err
	}); err != nil {
		return nil, err
	}
	var late dist
	var sent, failed int
	for _, rs := range [][]result{poRes, swRes} {
		for _, r := range rs {
			late.add(r.late)
			sent++
			if !r.ok {
				failed++
			}
		}
	}
	l.set("harness.late_p99_ms", summarize(late, 0.99).tail, "ms")
	l.set("harness.sent", float64(sent), "count")
	l.set("harness.failed", float64(failed), "count")
	l.attempted += sent
	if failed > 0 {
		l.fail("harness: %d loopback requests failed", failed)
	}
	if err := writeSpans(spansPath, rec.spans); err != nil {
		return nil, err
	}
	l.set("trace.spans", float64(len(rec.spans)), "count")
	return l, nil
}

// respWriter is a reusable in-process http.ResponseWriter, so the
// handler rung times the service, not a recorder's allocations.
type respWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.h }
func (w *respWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *respWriter) WriteHeader(code int)        { w.code = code }

func (w *respWriter) reset() {
	w.buf.Reset()
	w.code = http.StatusOK
	for k := range w.h {
		delete(w.h, k)
	}
}

// inProcess calls a handler directly, with requests built before the
// timed call.
type inProcess struct {
	h  http.Handler
	w  respWriter
	rq *http.Request
}

func newInProcess(h http.Handler) *inProcess {
	return &inProcess{h: h, w: respWriter{h: http.Header{}}}
}

func (p *inProcess) prepare(o op) {
	rq, err := http.NewRequest(http.MethodPost, "http://qbench"+o.path, bytes.NewReader(o.body))
	if err != nil {
		panic(err) // the benchmark builds every path; failure is a bug
	}
	p.rq = rq
	p.w.reset()
}

func (p *inProcess) serve() bool {
	p.h.ServeHTTP(&p.w, p.rq)
	return p.w.code/100 == 2
}

// allocsPerCall runs prep(i) then call(i) for each i < n with one
// processor and the collector off, and returns the median number of heap
// allocations call(i) made. The median is exact and repeats across runs:
// it ignores the rare call that grows a map or a pool.
func allocsPerCall(n int, prep, call func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	per := make([]float64, n)
	var ms runtime.MemStats
	for i := 0; i < n; i++ {
		prep(i)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		call(i)
		runtime.ReadMemStats(&ms)
		per[i] = float64(ms.Mallocs - before)
	}
	return medianOf(per)
}

// twice measures a count twice and records a failure when the two
// disagree: the benchmark's counts must repeat exactly.
func (l *layers) twice(name string, measure func() float64) float64 {
	a, b := measure(), measure()
	if a != b { //lint:allow floatcmp counts are whole numbers; any difference is a failed repeat
		l.fail("%s did not repeat: %g then %g", name, a, b)
	}
	return a
}

func usP50(d dist) float64 { return summarize(d, 0.5).p50 * 1000 }

// serviceRungPO replays the predict/observe stream through the daemon's
// handler in-process: decode, core work, encode, no transport.
func (l *layers) serviceRungPO(d *daemon, in *spoInput, rec *recorder) {
	p := newInProcess(d.srv.Handler())
	var times [2]dist
	names := [2]string{"service.predict", "service.observe"}
	perOp := make([]time.Duration, 0, rungOps)
	for i := 0; i < rungOps && i < len(in.ops); i++ {
		o := in.ops[i]
		p.prepare(o)
		rec.request()
		sp := rec.begin(names[o.kind])
		start := time.Now()
		ok := p.serve()
		took := time.Since(start)
		times[o.kind].add(took)
		perOp = append(perOp, took)
		rec.end(sp)
		l.attempted++
		if !ok {
			l.fail("%s: status %d", names[o.kind], p.w.code)
		}
	}
	l.set("service.predict_us_p50", usP50(times[kindPredict]), "us")
	l.set("service.observe_us_p50", usP50(times[kindObserve]), "us")
	l.inProc["predict"] = perOp
	snap := d.srv.Metrics().Snapshot()
	hits, misses := snap.Counters["service.predict.hits"], snap.Counters["service.predict.misses"]
	l.set("core.hit_share", ratio(int(hits), int(hits+misses)), "share")

	// Allocation counts on predicts only: they leave the daemon unchanged,
	// so both passes see the same state.
	predicts := opsOfKind(in.ops, kindPredict, allocCalls)
	l.set("service.predict_allocs", l.twice("service.predict_allocs", func() float64 {
		return allocsPerCall(len(predicts), func(i int) { p.prepare(predicts[i]) }, func(int) { p.serve() })
	}), "count")
}

// opsOfKind returns the first n ops of one kind.
func opsOfKind(ops []op, kind, n int) []op {
	var out []op
	for _, o := range ops {
		if o.kind == kind && len(out) < n {
			out = append(out, o)
		}
	}
	return out
}

// coreRungPO replays the same stream through the store-backed predictor
// directly, counting store probes per predict from the store's own
// latency histogram (one observation per probe).
func (l *layers) coreRungPO(d *daemon, in *spoInput, rec *recorder) {
	reg := d.srv.Metrics()
	probes := func() int64 { return reg.Snapshot().Histograms["histstore.predict.latency_seconds"].Count }
	walBytes := func() float64 {
		d.store.RefreshMetrics()
		return reg.Snapshot().Gauges["histstore.wal.bytes"]
	}
	l.set("histstore.categories", float64(d.store.Categories()), "count")
	l.set("histstore.points", float64(d.store.Points()), "count")
	probes0, wal0 := probes(), walBytes()
	var pt, ot dist
	var predicts, observes int
	n := rungOps
	if n > len(in.ops) {
		n = len(in.ops)
	}
	for i := 0; i < n; i++ {
		j := in.jobs[i]
		rec.request()
		if in.ops[i].kind == kindPredict {
			sp := rec.begin("core.predict")
			start := time.Now()
			d.pred.PredictDetailed(j, 0)
			pt.add(time.Since(start))
			rec.end(sp)
			predicts++
		} else {
			sp := rec.begin("core.observe")
			start := time.Now()
			d.pred.Observe(j)
			ot.add(time.Since(start))
			rec.end(sp)
			observes++
		}
	}
	l.attempted += n
	l.set("core.predict_us_p50", usP50(pt), "us")
	l.set("core.observe_us_p50", usP50(ot), "us")
	l.set("histstore.probes_per_predict", float64(probes()-probes0)/float64(predicts), "count")
	l.set("histstore.wal_bytes_per_observe", (walBytes()-wal0)/float64(observes), "bytes")

	var pj, oj []*workload.Job
	for i := n; i < len(in.ops) && (len(pj) < allocCalls || len(oj) < allocCalls); i++ {
		if in.ops[i].kind == kindPredict && len(pj) < allocCalls {
			pj = append(pj, in.jobs[i])
		} else if in.ops[i].kind == kindObserve && len(oj) < allocCalls {
			oj = append(oj, in.jobs[i])
		}
	}
	nop := func(int) {}
	l.set("core.predict_allocs", l.twice("core.predict_allocs", func() float64 {
		return allocsPerCall(len(pj), nop, func(i int) { d.pred.PredictDetailed(pj[i], 0) })
	}), "count")
	// Observes change the store, so they are counted once; the count
	// still repeats across runs of one seed.
	l.set("core.observe_allocs", allocsPerCall(len(oj), nop, func(i int) { d.pred.Observe(oj[i]) }), "count")
	if e := d.storeErrs.Load(); e > 0 {
		l.fail("histstore: %d insert errors", e)
	}
}

// storeRung times store probes (metrics on, as the daemon runs, and off)
// and durable inserts into a fresh store.
func (l *layers) storeRung(d *daemon, tmp string, rec *recorder) error {
	var keys []string
	cats := map[string]*histstore.Category{}
	d.store.ForEach(func(k string, c *histstore.Category) {
		keys = append(keys, k)
		cats[k] = c
	})
	sort.Strings(keys)
	probe := func() dist {
		var per dist
		for b := 0; b < getBatches; b++ {
			sp := rec.begin("histstore.get_batch")
			start := time.Now()
			for k := 0; k < getBatch; k++ {
				d.store.Get(keys[(b*getBatch+k)%len(keys)])
			}
			per.add(time.Since(start) / getBatch)
			rec.end(sp)
		}
		return per
	}
	l.set("histstore.get_ns_p50", usP50(probe())*1000, "ns")
	d.store.SetMetrics(nil)
	l.set("histstore.get_ns_p50_nometrics", usP50(probe())*1000, "ns")
	d.store.SetMetrics(d.srv.Metrics())
	l.attempted += 2 * getBatch * getBatches

	fresh, err := histstore.Open(filepath.Join(tmp, "inserts"))
	if err != nil {
		return err
	}
	fresh.SetMetrics(obs.NewRegistry())
	var it dist
	for i := 0; i < rungOps; i++ {
		k := keys[i%len(keys)]
		c := cats[k]
		pts := c.Points()
		sp := rec.begin("histstore.insert")
		start := time.Now()
		err := fresh.Insert(k, c.MaxHistory(), pts[i%len(pts)])
		it.add(time.Since(start))
		rec.end(sp)
		l.attempted++
		if err != nil {
			l.fail("histstore.insert: %v", err)
		}
	}
	l.set("histstore.insert_us_p50", usP50(it), "us")
	return fresh.Close()
}

// serviceRungWait replays the snapshots' predictwait and batch requests
// through the handler, and their queues through the core batch API.
func (l *layers) serviceRungWait(d *daemon, in *swInput, rec *recorder) {
	p := newInProcess(d.srv.Handler())
	var times [2]dist
	names := [2]string{"service.wait", "service.batch"}
	perOp := make([]time.Duration, 0, len(in.ops))
	for _, o := range in.ops {
		p.prepare(o)
		rec.request()
		sp := rec.begin(names[o.kind])
		start := time.Now()
		ok := p.serve()
		took := time.Since(start)
		times[o.kind].add(took)
		perOp = append(perOp, took)
		rec.end(sp)
		l.attempted++
		if !ok {
			l.fail("%s: status %d", names[o.kind], p.w.code)
		}
	}
	l.set("service.wait_us_p50", usP50(times[kindWait]), "us")
	l.set("service.batch_us_p50", usP50(times[kindBatch]), "us")
	l.inProc["wait"] = perOp
	waits := opsOfKind(in.ops, kindWait, allocCalls/4)
	l.set("service.wait_allocs", l.twice("service.wait_allocs", func() float64 {
		return allocsPerCall(len(waits), func(i int) { p.prepare(waits[i]) }, func(int) { p.serve() })
	}), "count")

	var bt dist
	for _, s := range in.snaps {
		items := make([]core.BatchItem, len(s.queue))
		for i, q := range s.queue {
			items[i] = core.BatchItem{Job: q}
		}
		rec.request()
		sp := rec.begin("core.batch")
		start := time.Now()
		d.pred.PredictDetailedBatch(items)
		bt.add(time.Since(start))
		rec.end(sp)
	}
	l.attempted += len(in.snaps)
	l.set("core.batch_us_p50", usP50(bt), "us")
}

// accuracyRung times accuracy.Tracker.Record, the scoring every observe
// runs, on the stream's (limit, actual) run-time pairs.
func (l *layers) accuracyRung(in *spoInput, rec *recorder) {
	tr := accuracy.New()
	var pairs [][2]float64
	for _, j := range in.warm {
		pairs = append(pairs, [2]float64{float64(j.MaxRunTime), float64(j.RunTime)})
	}
	var per dist
	for b := 0; b < recordCalls/recordBatch; b++ {
		sp := rec.begin("obs.accuracy_record_batch")
		start := time.Now()
		for k := 0; k < recordBatch; k++ {
			pr := pairs[(b*recordBatch+k)%len(pairs)]
			tr.Record("all", pr[0], pr[1])
		}
		per.add(time.Since(start) / recordBatch)
		rec.end(sp)
	}
	l.attempted += recordCalls
	l.set("obs.accuracy_record_ns_p50", usP50(per)*1000, "ns")
}

// waitRung runs waitpred.PredictStart on every snapshot with the policy
// and both predictors wrapped (picks and estimates timed from outside),
// then again unwrapped for the untraced time. It returns both wall times.
func (l *layers) waitRung(d *daemon, in *swInput, rec *recorder) (traced, untraced float64) {
	pol := &countingPolicy{inner: sched.Backfill{}, rec: rec}
	pred := &countingPredictor{inner: d.pred, pol: pol}
	dec := &countingPredictor{inner: predict.MaxRuntime{}, pol: pol}
	var calls dist
	first := len(rec.spans)
	start := time.Now()
	for _, s := range in.snaps {
		rec.request()
		sp := rec.begin("waitpred.predict_start")
		t0 := time.Now()
		_, err := waitpred.PredictStart(s.now, s.target, s.queue, s.running, in.nodes, pol, pred, dec, 0)
		calls.add(time.Since(t0))
		rec.end(sp)
		l.attempted++
		if err != nil {
			l.fail("waitpred: %v", err)
		}
	}
	traced = time.Since(start).Seconds()
	start = time.Now()
	for _, s := range in.snaps {
		_, _ = waitpred.PredictStart(s.now, s.target, s.queue, s.running, in.nodes, //lint:allow errdrop the traced pass above already checked every snapshot
			sched.Backfill{}, d.pred, predict.MaxRuntime{}, 0)
	}
	untraced = time.Since(start).Seconds()

	n := float64(len(in.snaps))
	dur, _, _ := totals(rec.spans, first)
	var picks dist
	for _, s := range rec.spans[first:] {
		if s.name == "sched.pick" {
			picks.add(time.Duration(s.end - s.start))
		}
	}
	l.set("waitpred.predict_start_us_p50", usP50(calls), "us")
	l.set("waitpred.estimates_per_call", float64(pred.estimates+dec.estimates)/n, "count")
	l.set("sched.picks_per_wait", float64(pol.picks)/n, "count")
	l.set("sched.pick_us_p50", usP50(picks), "us")
	l.set("sched.pick_share_wait", float64(dur["sched.pick"])/float64(dur["waitpred.predict_start"]), "share")
	depths := make([]float64, len(in.snaps))
	for i, s := range in.snaps {
		depths[i] = float64(len(s.queue))
	}
	q := quantiles(depths)
	l.set("sched.queue_depth_p50", q["p50"], "count")
	l.set("sched.queue_depth_p90", q["p90"], "count")
	few := in.snaps
	if len(few) > allocCalls/4 {
		few = few[:allocCalls/4]
	}
	l.set("waitpred.allocs_per_call", l.twice("waitpred.allocs_per_call", func() float64 {
		return allocsPerCall(len(few), func(int) {}, func(i int) {
			s := few[i]
			_, _ = waitpred.PredictStart(s.now, s.target, s.queue, s.running, in.nodes, //lint:allow errdrop the traced pass above already checked every snapshot
				sched.Backfill{}, d.pred, predict.MaxRuntime{}, 0)
		})
	}), "count")
	return traced, untraced
}

// tableCells returns the paper configuration's study workloads and the
// median time of their generation.
func tableCells() ([]*workload.Workload, float64, error) {
	ws, times, err := generateStudies(reproSetups)
	if err != nil {
		return nil, 0, err
	}
	return ws, medianOf(times), nil
}

// simRung runs every Table-12 cell (each study trace under LWF and
// Backfill with our predictor) through sim.Run directly: untraced for the
// run time and event rate, then with the policy and predictor wrapped for
// the pick and estimate shares. It returns both wall times.
func (l *layers) simRung(rec *recorder) (traced, untraced float64, err error) {
	ws, gen, err := tableCells()
	if err != nil {
		return 0, 0, err
	}
	l.set("workload.generate_s", gen, "s")
	pols := []sim.Policy{sched.LWF{}, sched.Backfill{}}
	reg := obs.NewRegistry()
	start := time.Now()
	for _, w := range ws {
		for _, pol := range pols {
			pr, err := exp.NewPredictor(exp.KindSmith, w)
			if err != nil {
				return 0, 0, err
			}
			if _, err := sim.Run(w, pol, pr, sim.Options{Metrics: reg}); err != nil {
				return 0, 0, err
			}
		}
	}
	untraced = time.Since(start).Seconds()
	events := reg.Snapshot().Counters["sim.events"]
	l.set("sim.run_s", untraced, "s")
	l.set("sim.events_per_s", float64(events)/untraced, "1/s")

	first := len(rec.spans)
	var outsideNs int64
	start = time.Now()
	for _, w := range ws {
		for _, pol := range pols {
			pr, err := exp.NewPredictor(exp.KindSmith, w)
			if err != nil {
				return 0, 0, err
			}
			cp := &countingPolicy{inner: pol, rec: rec}
			cpr := &countingPredictor{inner: pr, pol: cp}
			rec.request()
			sp := rec.begin("sim.run")
			_, err = sim.Run(w, cp, cpr, sim.Options{})
			rec.end(sp)
			if err != nil {
				return 0, 0, err
			}
			outsideNs += cpr.outsideNs
			l.attempted++
		}
	}
	traced = time.Since(start).Seconds()
	dur, self, _ := totals(rec.spans, first)
	l.set("sched.pick_share_sim", float64(dur["sched.pick"])/float64(dur["sim.run"]), "share")
	l.set("sim.self_share", float64(self["sim.run"]-outsideNs)/float64(dur["sim.run"]), "share")
	return traced, untraced, nil
}

// expRung runs Table 6's and Table 12's cells one after another through
// the experiment drivers, then both tables through their parallel
// fan-out, for the fan-out's efficiency on two processors.
func (l *layers) expRung(rec *recorder) error {
	ws, _, err := tableCells()
	if err != nil {
		return err
	}
	cfg := exp.Config{Scale: reproScale, Seed: goldenSeed}
	var waitS, schedS float64
	for _, w := range ws {
		for _, pol := range []sim.Policy{sched.FCFS{}, sched.LWF{}, sched.Backfill{}} {
			sp := rec.begin("exp.wait_cell")
			start := time.Now()
			_, err := exp.WaitTimeExperiment(w, pol, exp.KindSmith, cfg)
			waitS += time.Since(start).Seconds()
			rec.end(sp)
			if err != nil {
				return err
			}
		}
		for _, pol := range []sim.Policy{sched.LWF{}, sched.Backfill{}} {
			sp := rec.begin("exp.sched_cell")
			start := time.Now()
			_, err := exp.SchedulingExperiment(w, pol, exp.KindSmith, cfg)
			schedS += time.Since(start).Seconds()
			rec.end(sp)
			if err != nil {
				return err
			}
		}
	}
	l.attempted += 5 * len(ws)
	sp := rec.begin("exp.tables")
	t6, t12, got, err := regenerate(cfg)
	rec.end(sp)
	if err != nil {
		return err
	}
	if got != goldenDigest {
		l.fail("exp: golden digest mismatch")
	}
	l.set("exp.wait_cells_s", waitS, "s")
	l.set("exp.sched_cells_s", schedS, "s")
	l.set("exp.fanout_efficiency", (waitS+schedS)/(2*(t6+t12).Seconds()), "share")
	return nil
}

// loopback serves d on a loopback port and runs n ops of its mix open
// loop, then measures the transport alone — the same bodies to a no-op
// handler — and reports the part of the loopback median that neither the
// transport nor the in-process handler (on the same ops) explains.
func (l *layers) loopback(d *daemon, ops []op, n int, rate float64, senders, kind int, label string) ([]result, error) {
	if err := d.listen(); err != nil {
		return nil, err
	}
	c := newClient(d.url)
	res := openLoop(n, rate, senders, c.sender(ops), nil)
	c.close()
	var sendToEnd, inProc dist
	for i, r := range res {
		if ops[i%len(ops)].kind == kind {
			sendToEnd.add(r.svc)
			if i < len(l.inProc[label]) {
				inProc.add(l.inProc[label][i])
			}
		}
	}
	transport, err := transportP50(ops, kind)
	if err != nil {
		return nil, err
	}
	loop := usP50(sendToEnd)
	l.set("rung."+label+"_loopback_us_p50", loop, "us")
	l.set("rung."+label+"_transport_us_p50", transport, "us")
	l.set("rung."+label+"_gap_us", loop-transport-usP50(inProc), "us")
	return res, nil
}

// transportP50 is the median round trip of one op kind's bodies to a
// handler that reads the body and answers "{}", over the same client.
func transportP50(ops []op, kind int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) //lint:allow errdrop a short read only shortens the no-op
		_, _ = w.Write([]byte("{}"))       //lint:allow errdrop the client counts a failed reply
	})}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	c := newClient("http://" + ln.Addr().String())
	var d dist
	var body []op
	for _, o := range ops {
		if o.kind == kind {
			body = append(body, o)
		}
	}
	for i := 0; i < transportN; i++ {
		o := body[i%len(body)]
		start := time.Now()
		if _, ok := c.post(o.path, o.body); !ok {
			return 0, fmt.Errorf("transport probe failed")
		}
		d.add(time.Since(start))
	}
	c.close()
	if err := srv.Close(); err != nil {
		return 0, err
	}
	<-done
	return usP50(d), nil
}

// runtimeReading is a runtime/metrics snapshot of the counters behind
// the go.* metrics.
type runtimeReading struct {
	at                     time.Time
	gcCPU, totalCPU, alloc float64
	cycles                 uint64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeReading{
		at: time.Now(), gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
		alloc: float64(s[2].Value.Uint64()), cycles: s[3].Value.Uint64(),
	}
}

func (l *layers) setRuntime(a, b runtimeReading) {
	l.set("go.gc_cpu_share", (b.gcCPU-a.gcCPU)/math.Max(b.totalCPU-a.totalCPU, 1e-9), "share")
	l.set("go.alloc_mb_per_s", (b.alloc-a.alloc)/1e6/b.at.Sub(a.at).Seconds(), "MB/s")
	l.set("go.gc_cycles", float64(b.cycles-a.cycles), "count")
}

// printLayers writes the per-layer report, sorted by metric name.
func printLayers(w io.Writer, name string, seed int64, l *layers) {
	fmt.Fprintf(w, "workload %s seed %d (traced run, per-layer)\n", name, seed)
	for _, k := range sortedKeys(l.m) {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, l.m[k].Value, l.m[k].Unit)
	}
	for _, n := range l.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}
