package main

import (
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"strings"
	"time"

	"mlbench/internal/core"
	"mlbench/internal/perfgate"
	"mlbench/internal/trace"
)

// cellRun is one table cell executed directly through core.Execute.
type cellRun struct {
	spec        core.RunSpec
	cell        core.Cell
	table       string   // rendered 1x1 table, the bytes the server serves
	record      []string // perfgate snapshot record
	windowStats          // the core.Execute call

	// Traced runs only.
	phases   []time.Duration // host time from the cell's start or previous barrier to each barrier
	clockSum float64         // trace.Recorder.ClockSum of the cell
	counts   map[string]float64
}

func (c cellRun) name() string { return c.spec.Figure + "/" + c.spec.Row + "/" + c.spec.Col }

// cellPass is one run over a list of cells.
type cellPass struct {
	windowStats
	cells []cellRun
}

// countNames are the trace counters reported as count.<name>.
var countNames = []string{"shuffle_bytes", "shuffle_rows", "broadcast_bytes", "message_bytes",
	"ghost_bytes", "push_bytes", "pull_bytes", "tasks"}

// runCells executes each single-cell spec in order. When traced, every
// cell gets its own trace recorder and its phase barriers are timed.
func runCells(ctx context.Context, specs []core.RunSpec, traced bool) (cellPass, error) {
	var p cellPass
	w := openWindow()
	for _, spec := range specs {
		c := cellRun{spec: spec}
		var ex core.ExecOptions
		var rec *trace.Recorder
		cw := openWindow()
		if traced {
			rec = trace.NewRecorder()
			ex.Recorder = rec
			last := cw.start
			ex.Progress = func(core.ProgressEvent) {
				now := time.Now()
				c.phases = append(c.phases, now.Sub(last))
				last = now
			}
		}
		res, err := core.Execute(ctx, spec, ex)
		c.windowStats = cw.close()
		if err != nil {
			return p, fmt.Errorf("cell %s seed %d: %w", c.name(), spec.Seed, err)
		}
		c.cell = res.Table.Cells[spec.Row][spec.Col]
		c.table = res.Table.Render()
		recs, err := csv.NewReader(strings.NewReader(perfgate.SnapshotCSV(res.Table))).ReadAll()
		if err != nil || len(recs) != 2 {
			return p, fmt.Errorf("cell %s: snapshot: %v", c.name(), err)
		}
		c.record = recs[1]
		if rec != nil {
			c.clockSum = rec.ClockSum(c.name())
			c.counts = map[string]float64{}
			for _, n := range countNames {
				c.counts[n] = rec.Metrics().Total(n)
			}
		}
		p.cells = append(p.cells, c)
	}
	p.windowStats = w.close()
	return p, nil
}

var engines = []string{"dataflow", "relational", "gas", "bsp", "psengine"}

// engineOf maps a figure row label to the engine package that runs it.
func engineOf(row string) string {
	switch {
	case strings.HasPrefix(row, "SimSQL"):
		return "relational"
	case strings.HasPrefix(row, "Spark"):
		return "dataflow"
	case strings.HasPrefix(row, "GraphLab"):
		return "gas"
	case strings.HasPrefix(row, "Giraph"):
		return "bsp"
	case strings.HasPrefix(row, "Param Server"):
		return "psengine"
	}
	return "other"
}

// setCellLayers fills the per-layer metrics of a traced cell pass: cell
// spans, phase-barrier intervals, per-engine cell wall, virtual clocks
// and counters. It checks the trace's clock identity on every cell that
// completed: the phase and overhead spans sum to the cell's virtual
// clock, init plus iterations.
func setCellLayers(r *report, p cellPass) {
	var cellMS, phaseMS []float64
	engineWall := map[string]float64{}
	counts := map[string]float64{}
	var phases int
	var virtual float64
	for _, c := range p.cells {
		cellMS = append(cellMS, ms(c.wall))
		engineWall[engineOf(c.spec.Row)] += c.wall.Seconds()
		for _, d := range c.phases {
			phaseMS = append(phaseMS, ms(d))
		}
		phases += len(c.phases)
		virtual += c.clockSum
		for n, v := range c.counts {
			counts[n] += v
		}
		if !c.cell.Failed {
			clock := c.cell.InitSec + c.cell.IterSec*float64(c.spec.Normalize().Iterations)
			r.check(math.Abs(c.clockSum-clock) <= 1e-9*math.Max(1, clock),
				"%s seed %d: trace ClockSum %v != cell virtual clock %v", c.name(), c.spec.Seed, c.clockSum, clock)
		}
	}
	r.values["core.cell_ms.p50"] = median(cellMS)
	r.values["core.cell_ms.max"] = quantile(cellMS, 1)
	r.values["sim.phase_ms.p50"] = median(phaseMS)
	r.values["sim.phase_ms.p99"] = quantile(phaseMS, 0.99)
	r.values["sim.phases"] = float64(phases)
	r.values["sim.virtual_s"] = virtual
	for _, e := range engines {
		r.values[e+".wall_s"] = engineWall[e]
	}
	for _, n := range countNames {
		r.values["count."+n] = counts[n]
	}
}

// checkTraceRepeat checks that two traced passes over the same cells
// recorded the same counters and virtual clocks, cell for cell.
func checkTraceRepeat(r *report, a, b cellPass) {
	for i, c := range a.cells {
		d := b.cells[i]
		same := c.clockSum == d.clockSum
		for _, n := range countNames {
			same = same && c.counts[n] == d.counts[n]
		}
		r.check(same, "%s seed %d: traced passes differ: clock %v/%v, counters %v/%v",
			c.name(), c.spec.Seed, c.clockSum, d.clockSum, c.counts, d.counts)
	}
}

// setProcLayers fills self time by package from a CPU profile and the
// process's memory numbers over a window.
func setProcLayers(r *report, self map[string]float64, w windowStats) {
	for _, pkg := range []string{"linalg", "randgen", "models", "workload", "sim", "gc", "serve", "http"} {
		r.values["self_s."+pkg] = self[pkg]
	}
	r.values["proc.peak_rss_mb"] = peakRSSMB()
	r.values["proc.gc_cycles"] = float64(w.gcCycles)
	r.values["proc.gc_pause_ms"] = ms(w.gcPause)
}

// printCells prints one line per cell: labels, host wall, status.
func printCells(cells []cellRun) {
	for _, c := range cells {
		fmt.Printf("cell %-26s %-10s %9.1f ms %s\n", c.spec.Row, c.spec.Col, ms(c.wall), c.record[3])
	}
}
