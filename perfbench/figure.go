package main

import (
	"context"
	"crypto/sha256"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mlbench/internal/bench"
	"mlbench/internal/core"
	"mlbench/internal/perfgate"
)

// The figure workloads run a whole figure cell by cell at the perf-gate
// golden options, so at seed 1 every cell must reproduce its row of
// internal/perfgate/testdata/golden/<figure>.csv byte for byte.
var (
	sweep5m = workload{
		name:  "sweep-5m",
		setup: func(seed uint64) (runner, error) { return setupFigure("fig-ps", 0, "GMM 10d", seed) },
	}
	scale10k = workload{
		name:  "scale-10k",
		setup: func(seed uint64) (runner, error) { return setupFigure("fig-scale", 10_000, "GMM 100m", seed) },
	}
)

// goldenIters and goldenScaleDiv are the options every perfgate golden
// snapshot is recorded under (internal/perfgate/golden_test.go).
const (
	goldenIters    = 1
	goldenScaleDiv = perfgate.GateScaleDiv
	warmSeed       = 1
)

// figureRunner is a prepared figure workload.
type figureRunner struct {
	figure string
	seed   uint64
	specs  []core.RunSpec      // one single-cell spec per runnable cell, in rendering order
	golden map[string][]string // "row\x00col" -> golden snapshot record
}

func cellKey(row, col string) string { return row + "\x00" + col }

// setupFigure enumerates the figure's cells as single-cell RunSpecs,
// validates them, loads the golden snapshot, and runs every row's warmCol
// cell once, so each engine's lazy set-up finishes before the timed
// window. The warm-up cells run at warmSeed, so the set-up does the same
// work at every workload seed.
func setupFigure(figure string, machines int, warmCol string, seed uint64) (runner, error) {
	f := &figureRunner{figure: figure, seed: seed, golden: map[string][]string{}}
	for _, ref := range bench.RunnableCellRefs(bench.Options{Iterations: goldenIters, ScaleDiv: goldenScaleDiv, Seed: seed}) {
		if ref.Figure != figure {
			continue
		}
		spec := core.RunSpec{Figure: figure, Row: ref.Row, Col: ref.Col, Iterations: goldenIters,
			ScaleDiv: goldenScaleDiv, Seed: seed, Machines: machines}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		f.specs = append(f.specs, spec)
	}
	if len(f.specs) == 0 {
		return nil, fmt.Errorf("figure %s has no runnable cells", figure)
	}
	data, err := os.ReadFile(filepath.Join("internal", "perfgate", "testdata", "golden", figure+".csv"))
	if err != nil {
		return nil, fmt.Errorf("golden snapshot: %w", err)
	}
	recs, err := csv.NewReader(strings.NewReader(string(data))).ReadAll()
	if err == nil && len(recs) < 2 {
		err = fmt.Errorf("no cells")
	}
	if err != nil {
		return nil, fmt.Errorf("golden snapshot %s: %w", figure, err)
	}
	for _, rec := range recs[1:] {
		f.golden[cellKey(rec[1], rec[2])] = rec
	}
	for _, spec := range f.specs {
		if spec.Col == warmCol {
			spec.Seed = warmSeed
			if _, err := core.Execute(context.Background(), spec, core.ExecOptions{}); err != nil {
				return nil, fmt.Errorf("warm-up cell %s/%s: %w", spec.Row, spec.Col, err)
			}
		}
	}
	return f, nil
}

func (f *figureRunner) close() {}

// checkCells checks one pass's outputs. At seed 1 every record must
// equal its golden row, a simulated OOM "fail" included. Other seeds
// sample other data, so the golden numbers do not apply; each record must
// then be well formed: an ok cell has a finite positive iteration time
// and a finite non-negative init time, a failed cell carries a simulated
// out-of-memory note. When first is set, every record must also repeat
// the first pass byte for byte.
func (f *figureRunner) checkCells(p cellPass, first *cellPass, r *report) {
	for i, c := range p.cells {
		got := strings.Join(c.record, ",")
		name := c.spec.Row + "/" + c.spec.Col
		if f.seed == 1 {
			want := strings.Join(f.golden[cellKey(c.spec.Row, c.spec.Col)], ",")
			r.check(got == want, "%s: snapshot %q != golden %q", name, got, want)
		} else {
			r.check(wellFormed(c.record), "%s: malformed snapshot %q", name, got)
		}
		if first != nil {
			prev := strings.Join(first.cells[i].record, ",")
			r.check(got == prev, "%s: snapshot %q differs from the first pass %q", name, got, prev)
		}
	}
}

// wellFormed checks a snapshot record (figure,row,col,status,iter,init,notes).
func wellFormed(rec []string) bool {
	switch rec[3] {
	case "ok":
		iter, err1 := strconv.ParseFloat(rec[4], 64)
		init, err2 := strconv.ParseFloat(rec[5], 64)
		return err1 == nil && err2 == nil && iter > 0 && init >= 0 && !math.IsInf(iter, 0) && !math.IsInf(init, 0)
	case "fail":
		return strings.Contains(rec[6], "out of memory")
	}
	return false
}

// snapshotSHA hashes the pass's snapshot records so two commits can be
// compared at any seed.
func snapshotSHA(p cellPass) string {
	h := sha256.New()
	for _, c := range p.cells {
		fmt.Fprintln(h, strings.Join(c.record, ","))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func (f *figureRunner) run(ctx context.Context, seconds float64, traced bool, r *report) error {
	if traced {
		return f.runTraced(ctx, r)
	}
	// Repeat whole passes while another fits in the window; always one.
	var passes []cellPass
	start := time.Now()
	for {
		p, err := runCells(ctx, f.specs, false)
		if err != nil {
			return err
		}
		var first *cellPass
		if len(passes) > 0 {
			first = &passes[0]
		}
		f.checkCells(p, first, r)
		passes = append(passes, p)
		if time.Since(start).Seconds()+p.wall.Seconds() > seconds {
			break
		}
	}
	fmt.Printf("sha256 %s seed %d %s\n", f.figure, f.seed, snapshotSHA(passes[0]))
	printCells(passes[0].cells)
	for i, p := range passes {
		fmt.Printf("pass %d: %.3f s wall, %.3f s cpu\n", i+1, p.wall.Seconds(), p.cpu.Seconds())
	}
	// Summed over the cells: each cell's fastest wall over the passes (host
	// contention only ever slows a cell, and a slow spell that hits one
	// pass should not move the sweep), its median CPU and allocation.
	var wall, cpu, alloc float64
	for i := range f.specs {
		var walls, cpus, allocs []float64
		for _, p := range passes {
			c := p.cells[i]
			walls = append(walls, c.wall.Seconds())
			cpus = append(cpus, c.cpu.Seconds())
			allocs = append(allocs, c.allocMB)
		}
		wall += quantile(walls, 0)
		cpu += median(cpus)
		alloc += median(allocs)
	}
	r.values["wall_s"] = wall
	r.values["cpu_s"] = cpu
	r.values["alloc_mb"] = alloc
	r.values["done_rps"] = float64(len(f.specs)) / wall
	return nil
}

// runTraced makes three passes: a plain one as in the untraced run; one
// with trace recorders and the phase barriers hooked, which gives the
// cell, phase, engine and counter numbers; and the same again with a CPU
// profile running, which gives self time by package. The second and
// third passes must record the same counters and clocks cell for cell.
// The traced pass's wall minus the plain one's is the tracing overhead.
func (f *figureRunner) runTraced(ctx context.Context, r *report) error {
	plain, err := runCells(ctx, f.specs, false)
	if err != nil {
		return err
	}
	f.checkCells(plain, nil, r)
	traced, err := runCells(ctx, f.specs, true)
	if err != nil {
		return err
	}
	f.checkCells(traced, &plain, r)
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	profiled, err := runCells(ctx, f.specs, true)
	self, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	f.checkCells(profiled, &plain, r)
	checkTraceRepeat(r, traced, profiled)
	fmt.Printf("sha256 %s seed %d %s\n", f.figure, f.seed, snapshotSHA(plain))
	printCells(traced.cells)
	setCellLayers(r, traced)
	setProcLayers(r, self, traced.windowStats)
	r.values["trace.overhead_s"] = traced.wall.Seconds() - plain.wall.Seconds()
	for _, m := range metrics.PerLayer {
		if strings.HasPrefix(m.Name, "serve.") {
			r.values[m.Name] = 0 // no serving traffic on a figure workload
		}
	}
	return nil
}
