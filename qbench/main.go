// Command qbench is the repository's end-to-end benchmark. It drives the
// prediction daemon and the paper reproduction in-process, from one
// process with at most two goroutines issuing work, on inputs generated
// from --seed, checks the outputs, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run replays the same inputs through each layer's public
// functions and reports the per-layer metrics. See README.md.
//
// Usage (from the repository root):
//
//	bash qbench/run.sh --workload serve-wait --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// workloads lists the benchmark's workloads in README order.
var workloads = []string{"serve-predict-observe", "serve-wait", "paper-repro"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("qbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	traced := fs.Int("trace", 0, "1: separate traced run reporting per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for temporary stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	known := false
	for _, w := range workloads {
		known = known || w == *name
	}
	if !known {
		return fmt.Errorf("unknown -workload %q (want one of %s)", *name, strings.Join(workloads, ", "))
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	tmp, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(tmp); err == nil {
			err = rerr
		}
	}()

	w := bufio.NewWriter(stdout)
	var out output
	if *traced == 1 {
		l, err := runLayers(*name, *seed, tmp, filepath.Join(*outDir, "spans-"+*name+".tsv.gz"))
		if err != nil {
			return err
		}
		out = l.output()
		printLayers(w, *name, *seed, l)
	} else {
		var r *e2e
		steal0, total0 := cpuSteal()
		switch *name {
		case "serve-predict-observe":
			r, err = runSPO(*seed, *seconds, tmp)
		case "serve-wait":
			r, err = runSW(*seed, *seconds, tmp)
		case "paper-repro":
			r, err = runRepro(*seed, *seconds)
		}
		if err != nil {
			return err
		}
		steal1, total1 := cpuSteal()
		out = r.output()
		printE2E(w, *name, *seed, r, out)
		if total1 > total0 {
			fmt.Fprintf(w, "  machine steal_share %.3f (CPU time the hypervisor gave other guests during the run; not a metric)\n",
				float64(steal1-steal0)/float64(total1-total0))
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	return w.Flush()
}

// output maps one workload's measurements onto the end-to-end metric
// names, which every workload reports: a and b are its two timed
// operations (README.md lists them per workload). Timings are scaled to
// take out the machine's drift between runs (calib.go).
func (r *e2e) output() output {
	errShare := float64(r.failed) / float64(r.attempted)
	return output{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{
			"a_p50_ms":      {r.a.p50 * r.abScale, "ms"},
			"b_p50_ms":      {r.b.p50 * r.abScale, "ms"},
			"saturated_rps": {r.saturated / r.satScale, "1/s"},
			"ok_share":      {1 - errShare, "share"},
			"setup_s":       {medianOf(r.setup) * r.setupScale, "s"},
			"peak_rss_mb":   {r.peakRSS, "MB"},
		},
	}
}

// printE2E writes the human-readable report: the input record, then each
// metric under the workload's own name for it, with sample counts. Timed
// metrics show the scaled figure, then the figure as measured.
func printE2E(w io.Writer, name string, seed int64, r *e2e, out output) {
	fmt.Fprintf(w, "workload %s seed %d\n", name, seed)
	for _, kv := range r.record {
		data, _ := json.Marshal(kv.v) // values are numbers, strings and maps of numbers
		fmt.Fprintf(w, "  input %-24s %s\n", kv.k, data)
	}
	fmt.Fprintf(w, "  timings scaled by %s; \"measured\" gives the raw figure\n", r.scaleBasis)
	line := func(metric string, v float64, unit, detail string) {
		fmt.Fprintf(w, "  %-22s %12.4f %-5s %s\n", metric, v, unit, detail)
	}
	for i, s := range []summary{r.a, r.b} {
		key := string(rune('a' + i))
		line(r.names[i]+"_p50_ms", s.p50*r.abScale, "ms", fmt.Sprintf("n=%d measured %.4f [%s_p50_ms]", s.n, s.p50, key))
		line(r.names[i]+"_"+s.tailName+"_ms", s.tail*r.abScale, "ms", fmt.Sprintf("n=%d measured %.4f (printed, not gated)", s.n, s.tail))
		if v, ok := percentile(r.dists[i].sorted(), 0.99); ok && s.tailName != "p99" {
			line(r.names[i]+"_p99_ms", v*r.abScale, "ms", fmt.Sprintf("n=%d measured %.4f (printed, not gated)", s.n, v))
		}
	}
	line("saturated_rps", r.saturated/r.satScale, "1/s", fmt.Sprintf("n=%d measured %.4f", r.satN, r.saturated))
	line("error_share", 1-out.Metrics["ok_share"].Value, "share",
		fmt.Sprintf("failed=%d attempted=%d [ok_share = 1 - error_share]", r.failed, r.attempted))
	lo, hi := minMax(r.setup)
	line("setup_s", out.Metrics["setup_s"].Value, "s", fmt.Sprintf("median of %d measured %.4f, range %.4f-%.4f", len(r.setup), medianOf(r.setup), lo, hi))
	line("peak_rss_mb", r.peakRSS, "MB", r.rssDetail)
	if r.late.n > 0 {
		line("harness.late_p99_ms", r.late.tail, "ms", fmt.Sprintf("n=%d (%s) p50 %.4f, measured", r.late.n, r.late.tailName, r.late.p50))
	}
}

// resetPeakRSS collects the garbage, returns the heap's free memory to
// the system and resets the process's resident high-water mark (VmHWM)
// to its current resident size, which it returns in MB. Called after
// input generation, it makes the peak read at the end of the run cover
// only the set-ups and the measured phases.
func resetPeakRSS() (float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, err
	}
	return procStatusMB("VmRSS")
}

// peakGrowthMB returns how far the resident high-water mark has risen
// above base, the size resetPeakRSS returned.
func peakGrowthMB(base float64) (float64, error) {
	peak, err := procStatusMB("VmHWM")
	return peak - base, err
}

// procStatusMB reads a kB field of /proc/self/status, such as VmHWM (the
// peak resident set size), in MB.
func procStatusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

func minMax(vs []float64) (lo, hi float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[0], s[len(s)-1]
}

// cpuSteal returns the machine's steal time and total CPU time so far,
// in clock ticks, from /proc/stat; zeros when they cannot be read. Steal
// is time a virtual CPU was ready to run while the hypervisor ran
// another guest: the main reason a run on a shared machine reads slower
// than the one before.
func cpuSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
