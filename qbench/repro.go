package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/workload"
)

// reproScale divides the Table-1 trace sizes for paper-repro: large
// enough that the simulations, not table assembly, carry the time.
const reproScale = 40

// goldenSeed is cmd/tables' default seed; goldenDigest is the SHA-256 of
// Tables 6 and 12 rendered at reproScale with it. Any change to the
// reproduction's numbers changes the digest.
const (
	goldenSeed   = 42
	goldenDigest = "ef32d1d6ddc9e1e7ede1c1434cc0546c33e3029b20af5179335a05b597695fc0"
)

// setupsPerRep is how many set-ups paper-repro times after each timed
// regeneration, until it has reproSetups; calPerRep how many calibration
// kernels.
const (
	setupsPerRep = 4
	calPerRep    = 2
)

// regenerate renders Table 6 then Table 12 exactly as cmd/tables does and
// returns each table's wall time and the digest of both renderings.
func regenerate(cfg exp.Config) (t6, t12 time.Duration, digest string, err error) {
	var buf bytes.Buffer
	start := time.Now()
	tab6, err := exp.Table6(cfg)
	if err != nil {
		return 0, 0, "", err
	}
	t6 = time.Since(start)
	start = time.Now()
	tab12, err := exp.Table12(cfg)
	if err != nil {
		return 0, 0, "", err
	}
	t12 = time.Since(start)
	if err := tab6.Render(&buf); err != nil {
		return 0, 0, "", err
	}
	if err := tab12.Render(&buf); err != nil {
		return 0, 0, "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return t6, t12, hex.EncodeToString(sum[:]), nil
}

// generateStudies generates the paper configuration's study workloads k
// times, each from a collected heap, and returns the last generation with
// every generation's wall time.
func generateStudies(k int) ([]*workload.Workload, []float64, error) {
	var ws []*workload.Workload
	var times []float64
	for i := 0; i < k; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if ws, err = workload.AllStudies(reproScale, goldenSeed); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return ws, times, nil
}

// rssReps is how many untimed regenerations paper-repro makes first,
// each from a reset resident high-water mark, for peak_rss_mb. They are
// also the timed loop's warm-up.
const rssReps = 4

// runRepro measures paper-repro: repeated regenerations of Tables 6 and
// 12, as a researcher waiting on each would issue them. The timed tables
// are the paper's configuration (goldenSeed), checked against the golden
// digest on every repetition: the tables' cost swings by a factor of two
// between table seeds (565-1117 ms for Table 6 over seeds 1-8 on the
// reference machine), which no bound could absorb. The run's seed feeds
// the repetition check instead: its tables are regenerated twice,
// untimed, and must render identically.
//
// peak_rss_mb is the median VmHWM of rssReps untimed regenerations, each
// started from a collected heap with the free memory returned to the
// system and the high-water mark reset (the process holds no generated
// inputs here). The timed regenerations are not reset that way: a heap
// handed back to the system must be faulted in again, which added about
// 8% to each regeneration on the reference VM and is work no user of the
// tables does.
//
// After each timed regeneration the run times the calibration kernel
// twice and a few set-ups, so that both sample the machine over the whole
// run, not over the half second that reproSetups back-to-back
// generations would take.
func runRepro(seed int64, seconds float64) (*e2e, error) {
	r := &e2e{names: [2]string{"table6", "table12"}}
	var cal calibration
	ws, times, err := generateStudies(1)
	if err != nil {
		return nil, err
	}
	r.setup = times
	var jobs int
	for _, w := range ws {
		jobs += len(w.Jobs)
	}
	var wrong int
	check := func(got, want string) {
		if got != want {
			wrong++
		}
	}
	seeded := exp.Config{Scale: reproScale, Seed: seed}
	_, _, first, err := regenerate(seeded)
	if err != nil {
		return nil, err
	}
	_, _, second, err := regenerate(seeded)
	if err != nil {
		return nil, err
	}
	check(second, first)

	cfg := exp.Config{Scale: reproScale, Seed: goldenSeed}
	var peaks []float64
	for i := 0; i < rssReps; i++ {
		if _, err := resetPeakRSS(); err != nil {
			return nil, err
		}
		_, _, got, err := regenerate(cfg)
		if err != nil {
			return nil, err
		}
		peak, err := procStatusMB("VmHWM")
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		check(got, goldenDigest)
	}

	var a, b dist
	var reps int
	var regenWall time.Duration
	start := time.Now()
	for reps < 3 || time.Since(start).Seconds() < seconds {
		runtime.GC()
		t6, t12, got, err := regenerate(cfg)
		if err != nil {
			return nil, err
		}
		regenWall += t6 + t12
		a.add(t6)
		b.add(t12)
		check(got, goldenDigest)
		reps++
		cal.run(calPerRep)
		if len(r.setup) < reproSetups {
			_, times, err := generateStudies(min(setupsPerRep, reproSetups-len(r.setup)))
			if err != nil {
				return nil, err
			}
			r.setup = append(r.setup, times...)
		}
	}
	_, times, err = generateStudies(reproSetups - len(r.setup))
	if err != nil {
		return nil, err
	}
	r.setup = append(r.setup, times...)
	r.peakRSS = medianOf(peaks)
	r.rssDetail = fmt.Sprintf("median over %d untimed regenerations of VmHWM, reset before each", len(peaks))
	r.dists = [2]dist{a, b}
	r.a, r.b = summarize(a, 1), summarize(b, 1)
	r.saturated, r.satN = float64(reps)/regenWall.Seconds(), reps
	k := cal.speed()
	r.abScale, r.satScale, r.setupScale = k, k, k
	r.scaleBasis = fmt.Sprintf("the machine speed: the calibration kernel's median %.4f s over %d runs (IQR %.3f of it) against %.4f s",
		medianOf(cal.samples), len(cal.samples), cal.spread(), calRef)
	var pairs dist
	for i := range a.ms {
		pairs.ms = append(pairs.ms, a.ms[i]+b.ms[i])
	}
	r.attempted = reps + rssReps + 1
	r.failed = wrong
	r.addRecord("traces", "ANL,CTC,SDSC95,SDSC96")
	r.addRecord("scale", reproScale)
	r.addRecord("compression", 1)
	r.addRecord("table_seed", goldenSeed)
	r.addRecord("seed", seed)
	r.addRecord("jobs", jobs)
	r.addRecord("cells", "Table 6: 4 traces x FCFS/LWF/Backfill; Table 12: 4 traces x LWF/Backfill")
	r.addRecord("regenerations", reps)
	r.addRecord("repro_s", summarize(pairs, 1).p50/1000)
	r.addRecord("golden_digest", goldenDigest)
	r.addRecord("seed_digest", first)
	r.addRecord("wrong_outputs", wrong)
	return r, nil
}
