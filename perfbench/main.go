// Command perfbench is the repository benchmark: it runs one named
// workload (sweep-5m, scale-10k, or serve-mix) against the mlbench
// packages in this process, checks every output, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the workload again with spans, counters and a CPU profile and reports
// the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"mlbench/internal/perfgate"
)

// metricValue is one reported value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// benchmarkFile is the part of BENCHMARK.json (at the repository root)
// that names the metrics and their units.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef names a metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// setupRuns is how many times an untraced run performs its workload's
// set-up before measuring; setup_s is their median. The first set-up is
// the cold one, in a fresh process.
const setupRuns = 15

// metrics is the loaded BENCHMARK.json.
var metrics benchmarkFile

// report collects a run's outcome: checked outputs, failures, and metric
// values by name.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// check counts one checked output; a false ok is a failure with a reason.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// workload is one named benchmark workload. setup prepares everything a
// run needs before the timed window; run measures for the given duration
// and fills the report.
type workload struct {
	name  string
	setup func(seed uint64) (runner, error)
}

// runner is a prepared workload.
type runner interface {
	run(ctx context.Context, seconds float64, traced bool, r *report) error
	close()
}

var workloads = []workload{sweep5m, scale10k, serveMix}

func main() {
	name := flag.String("workload", "", "workload to run (sweep-5m, scale-10k, serve-mix)")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seed == 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (sweep-5m, scale-10k, serve-mix), -seed >= 1, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &metrics)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		os.Exit(1)
	}
	rep := newReport()
	runs := 1
	if *traceFlag == 0 {
		runs = setupRuns
	}
	var r runner
	var setups []float64
	for i := 0; i < runs; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		r, err = w.setup(*seed)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", w.name, err)
			os.Exit(1)
		}
	}
	defer r.close()
	rep.values["setup_s"] = median(setups)
	env, _ := json.Marshal(perfgate.CaptureEnv())
	fmt.Printf("env %s\n", env)
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *traceFlag)

	if err := r.run(context.Background(), *seconds, *traceFlag == 1, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		r.close()
		os.Exit(1)
	}
	names := metrics.EndToEnd
	if *traceFlag == 1 {
		names = metrics.PerLayer
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range names {
		v, ok := rep.values[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", w.name, m.Name)
			r.close()
			os.Exit(1)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if runs > 1 {
		fmt.Printf("set-up %d times: %s\n", runs, formatMS(setups))
	}
	for _, p := range rep.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	fmt.Printf("fail_share %g (%d of %d checked outputs)\n", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %-24s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		r.close()
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// window measures one timed interval of the process: wall, CPU, bytes
// allocated and garbage collections.
type window struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

type windowStats struct {
	wall, cpu time.Duration
	allocMB   float64
	gcCycles  uint32
	gcPause   time.Duration
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.cpu = cpuTime()
	w.start = time.Now()
	return w
}

func (w *window) close() windowStats {
	wall := time.Since(w.start)
	cpu := cpuTime() - w.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return windowStats{
		wall:     wall,
		cpu:      cpu,
		allocMB:  float64(m.TotalAlloc-w.mem.TotalAlloc) / 1e6,
		gcCycles: m.NumGC - w.mem.NumGC,
		gcPause:  time.Duration(m.PauseTotalNs - w.mem.PauseTotalNs),
	}
}

// formatMS lists durations given in seconds as milliseconds.
func formatMS(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f ms", x*1e3)
	}
	return strings.Join(parts, " ")
}
