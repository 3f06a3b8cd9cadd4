package main

import (
	"time"

	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/workload"
)

// countingPolicy wraps the sim.Policy the benchmark hands to waitpred and
// sim, counting Pick calls and recording each as a "sched.pick" span.
type countingPolicy struct {
	inner  sim.Policy
	rec    *recorder
	picks  int64
	inPick bool
}

func (p *countingPolicy) Name() string { return p.inner.Name() }

func (p *countingPolicy) Pick(now int64, queue, running []*workload.Job, free, total int, est sim.Estimator) []*workload.Job {
	p.picks++
	p.inPick = true
	sp := p.rec.begin("sched.pick")
	out := p.inner.Pick(now, queue, running, free, total, est)
	p.rec.end(sp)
	p.inPick = false
	return out
}

// countingPredictor wraps a predict.Predictor the same way, counting
// estimate calls. Estimates run millions of times per simulation, so
// they are summed rather than kept as spans: outsideNs is the time spent
// in estimates made outside any Pick of pol (the estimates a Pick makes
// are already inside its span).
type countingPredictor struct {
	inner     predict.Predictor
	pol       *countingPolicy
	estimates int64
	outsideNs int64
}

func (p *countingPredictor) Name() string { return p.inner.Name() }

func (p *countingPredictor) Predict(j *workload.Job, age int64) (int64, bool) {
	p.estimates++
	start := time.Now()
	sec, ok := p.inner.Predict(j, age)
	if p.pol == nil || !p.pol.inPick {
		p.outsideNs += time.Since(start).Nanoseconds()
	}
	return sec, ok
}

func (p *countingPredictor) Observe(j *workload.Job) { p.inner.Observe(j) }
