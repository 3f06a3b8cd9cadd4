package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// A shared host's speed drifts between runs by 10-40% with other tenants'
// load, far more than a run's medians move within it, so every timing is
// scaled to take the drift out. Two kinds of drift show on the reference
// 2-vCPU VM, and each workload is scaled for the one its work feels:
//
//   - Steal: the hypervisor deschedules the virtual CPUs, for up to 31%
//     of a run. The serve workloads, whose senders and daemon leave the
//     processors idle between requests or wait on each other's wake-ups,
//     feel it directly. Their timings are scaled by 1 - the share of the
//     machine's CPU time the hypervisor took (/proc/stat) during the
//     phase the timing comes from: the open loop for a and b, the closed
//     loop for saturated_rps, the set-ups for setup_s.
//   - Speed: the processors run, but slower, with steal under 1%. Table
//     regenerations keep both processors busy with allocation- and
//     collector-heavy work, and feel that most. paper-repro times a fixed
//     calibration kernel of the same kind twice after each regeneration
//     and scales its timings by the kernel's reference time over its
//     median in the run:
//
//	reported time = measured time × reference kernel time / median(kernel time)
//
// and a throughput by the inverse. The kernel is the benchmark's code,
// never the program's, so a change to the program moves the reported
// figures by exactly as much as it moves the measured ones, while a
// slower machine moves both the kernel and the program. Of the kernels
// tried over 12 minutes of Table 6 + 12 regenerations (an integer hash
// loop, a random walk over 64 MB, map inserts plus a sort, and this one),
// it tracked the regenerations' drift closest (correlation 0.96 over 30 s
// windows; regeneration time over kernel time held within ±2.5% while
// the regeneration time alone moved ±9%). README.md, "Machine speed",
// gives the spreads each choice gave.

// calRef is the kernel's median wall time on the reference machine, in
// seconds, between paper-repro's regenerations. It sets only the scale of
// the reported figures, which on the reference machine read about as
// measured.
const calRef = 0.165

// calAllocs is how many objects each of the kernel's two goroutines
// allocates; calLive how many of them it keeps reachable at once.
const (
	calAllocs = 1_000_000
	calLive   = 10_000
)

type calNode struct {
	a, b *calNode
	v    [4]int
}

// calSink keeps the kernel's result observable so that it is not
// optimized away.
var calSink int

// calKernel runs the calibration kernel once and returns its wall time.
func calKernel() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for g := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keep := make([]*calNode, 0, calLive)
			for i := 0; i < calAllocs; i++ {
				if len(keep) == calLive {
					keep = keep[:0]
				}
				n := &calNode{}
				n.v[0] = i
				if len(keep) > 0 {
					n.a = keep[len(keep)-1]
				}
				keep = append(keep, n)
			}
			counts[g] = len(keep)
		}()
	}
	wg.Wait()
	calSink += counts[0] + counts[1]
	return time.Since(start)
}

// calibration collects one run's kernel times.
type calibration struct {
	samples []float64 // seconds
}

// run times the kernel k times, each from a collected heap.
func (c *calibration) run(k int) {
	for i := 0; i < k; i++ {
		runtime.GC()
		c.samples = append(c.samples, calKernel().Seconds())
	}
}

// speed is the reference kernel time over the run's median: above 1 on
// a machine (or in a minute) faster than the reference, below 1 on a
// slower one.
func (c *calibration) speed() float64 {
	return calRef / medianOf(c.samples)
}

// spread is the kernel times' interquartile range over their median.
func (c *calibration) spread() float64 {
	s := append([]float64(nil), c.samples...)
	sort.Float64s(s)
	n := len(s)
	return (s[(3*n)/4] - s[n/4]) / median(s)
}

// stealMeter adds up the machine's steal and total CPU time over the
// calls it wraps.
type stealMeter struct {
	steal, total int64 // clock ticks
}

func (m *stealMeter) during(f func()) {
	s0, t0 := cpuSteal()
	f()
	s1, t1 := cpuSteal()
	m.steal += s1 - s0
	m.total += t1 - t0
}

// unstolen is the share of the measured CPU time the hypervisor did not
// take: 1 when nothing was measured or /proc/stat cannot be read.
func (m *stealMeter) unstolen() float64 {
	if m.total <= 0 {
		return 1
	}
	return 1 - float64(m.steal)/float64(m.total)
}
