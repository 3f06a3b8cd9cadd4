package main

import (
	"sort"

	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Endpoint kinds of the two serve workloads.
const (
	kindPredict = iota // serve-predict-observe
	kindObserve
)

const (
	kindWait = iota // serve-wait
	kindBatch
)

// spoInput is serve-predict-observe's generated input: the first half of
// a study trace to warm the store with, and the second half as the
// request stream — a predict at each submission and an observe at each
// completion, in the order the events happen under a Backfill schedule.
type spoInput struct {
	trace string
	nodes int
	warm  []*workload.Job
	ops   []op
	jobs  []*workload.Job // the job each op carries
}

// spoTrace is the study trace serve-predict-observe replays, at full size
// so the measured phase never runs out of distinct requests. The timed
// trace is generated from spoTraceSeed: the category count after warm-up
// and the cost of a request move with the trace's seed (3,846-3,971
// categories over seeds 11-13, and closed-loop CPU time per request by
// 15%), which would make the figures a property of the seed. So, as on
// the other two workloads, the timed input is fixed and the run's seed
// feeds the check.
const (
	spoTrace     = "SDSC95"
	spoScale     = 1
	spoTraceSeed = goldenSeed
)

func makeSPO(seed int64) (*spoInput, error) {
	w, err := workload.Study(spoTrace, spoScale, seed)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(w, sched.Backfill{}, predict.MaxRuntime{}, sim.Options{})
	if err != nil {
		return nil, err
	}
	jobs := res.Jobs
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].SubmitTime < jobs[b].SubmitTime })
	half := len(jobs) / 2
	in := &spoInput{trace: w.Name, nodes: w.MachineNodes}
	for _, j := range jobs[:half] {
		in.warm = append(in.warm, visible(j, false, true))
	}
	type event struct {
		t    int64
		kind int
		j    *workload.Job
	}
	var evs []event
	for _, j := range jobs[half:] {
		evs = append(evs, event{j.SubmitTime, kindPredict, j}, event{j.EndTime, kindObserve, j})
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		if evs[a].kind != evs[b].kind {
			return evs[a].kind > evs[b].kind // completions before submissions at one instant
		}
		return evs[a].j.ID < evs[b].j.ID
	})
	for _, e := range evs {
		if e.kind == kindPredict {
			j := visible(e.j, false, false)
			in.jobs = append(in.jobs, j)
			in.ops = append(in.ops, op{kindPredict, "/v1/predict",
				mustJSON(service.PredictRequest{Job: jobJSON(j)})})
		} else {
			j := visible(e.j, false, true)
			in.jobs = append(in.jobs, j)
			in.ops = append(in.ops, op{kindObserve, "/v1/observe",
				mustJSON(service.ObserveRequest{Job: jobJSON(j)})})
		}
	}
	return in, nil
}

// snapshot is the scheduler state at one submission: the queue (arrival
// order, target included) and the running jobs with their start times.
type snapshot struct {
	now     int64
	target  *workload.Job
	queue   []*workload.Job
	running []*workload.Job
}

// swInput is serve-wait's timed input, one fixed trace: its first half's
// completed jobs warm the store, and the scheduler snapshot at each of
// its second half's submissions is replayed as a predictwait and a batch
// predict of that queue. The checked snapshots come from a trace of the
// same shape generated from the run's seed (swSnapshotsChecked): they
// are sent untimed and their responses compared with a direct
// computation.
type swInput struct {
	trace string
	nodes int
	warm  []*workload.Job
	snaps []snapshot
	ops   []op // two per snapshot: predictwait, then predict/batch
}

// The serve-wait trace: CTC at a tenth of its size with interarrival
// times halved (the §4 compression), so Backfill queues reach the tens.
// The timed trace is generated from swTraceSeed, whose second half's
// queues run 39 deep at the median, 61 at the p90 and 75 at most. One
// trace's queue depths swing with its seed (the median depth of the
// second half ranges from 1 to 133 over seeds 1-24), which would make
// latency a property of the seed; so, as paper-repro does with its
// tables, the timed input is fixed and the run's seed feeds the check.
const (
	swTrace     = "CTC"
	swScale     = 10
	swCompress  = 2.0
	swTraceSeed = 9
	swMaxQueue  = 80 // deeper check snapshots cost tens of times more; none are checked
)

func makeSW() (*swInput, error) {
	in := &swInput{}
	var err error
	in.trace, in.nodes, in.warm, in.snaps, err = swSnapshots(swTraceSeed, func(int, int) bool { return true })
	if err != nil {
		return nil, err
	}
	in.ops = swOps(in.snaps)
	return in, nil
}

// swSnapshotsChecked returns every checkEvery-th second-half snapshot,
// with at most swMaxQueue queued jobs, of the trace generated from seed.
func swSnapshotsChecked(seed int64) ([]snapshot, error) {
	_, _, _, snaps, err := swSnapshots(seed, func(i, depth int) bool {
		return i%checkEvery == 0 && depth <= swMaxQueue
	})
	return snaps, err
}

// swSnapshots runs Backfill over the serve-wait trace generated from
// seed and returns the trace's name and machine size, its first half as
// completed history, and the snapshots at those second-half submissions
// (numbered from 0 in submission order) that keep accepts.
func swSnapshots(seed int64, keep func(i, depth int) bool) (string, int, []*workload.Job, []snapshot, error) {
	base, err := workload.Study(swTrace, swScale, seed)
	if err != nil {
		return "", 0, nil, nil, err
	}
	w := workload.Compress(base, swCompress)
	half := len(w.Jobs) / 2
	var warm []*workload.Job
	for _, j := range w.Jobs[:half] {
		warm = append(warm, visible(j, false, true))
	}
	var snaps []snapshot
	submit := 0
	opts := sim.Options{OnSubmit: func(now int64, j *workload.Job, queue, running []*workload.Job) {
		i := submit - half
		submit++
		if i < 0 || !keep(i, len(queue)) {
			return
		}
		s := snapshot{now: now}
		for _, q := range queue {
			c := visible(q, false, false)
			if q == j {
				s.target = c
			}
			s.queue = append(s.queue, c)
		}
		for _, r := range running {
			s.running = append(s.running, visible(r, true, false))
		}
		snaps = append(snaps, s)
	}}
	if _, err := sim.Run(w, sched.Backfill{}, predict.MaxRuntime{}, opts); err != nil {
		return "", 0, nil, nil, err
	}
	return w.Name, w.MachineNodes, warm, snaps, nil
}

// swOps encodes each snapshot as a predictwait request and a batch
// predict of its queue.
func swOps(snaps []snapshot) []op {
	var ops []op
	for _, s := range snaps {
		req := service.PredictWaitRequest{Now: s.now, Policy: "Backfill", Target: jobJSON(s.target)}
		var batch service.PredictBatchRequest
		for _, q := range s.queue {
			req.Queue = append(req.Queue, jobJSON(q))
			batch.Jobs = append(batch.Jobs, service.PredictRequest{Job: jobJSON(q)})
		}
		for _, r := range s.running {
			req.Running = append(req.Running, jobJSON(r))
		}
		ops = append(ops,
			op{kindWait, "/v1/predictwait", mustJSON(req)},
			op{kindBatch, "/v1/predict/batch", mustJSON(batch)})
	}
	return ops
}
