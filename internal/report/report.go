// Package report regenerates every table and figure of the paper's
// evaluation section from the simulators in this repository. It is shared by
// cmd/neocpu-bench and by the benchmark harness in bench_test.go, and every
// function returns both structured data (for assertions) and a formatted
// text rendering (for humans).
package report

import (
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/search"
)

// Table1 renders the feature-comparison matrix of Table 1.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Side-by-side comparison between NeoCPU and existing works\n\n")
	fmt.Fprintf(&b, "%-22s %-12s %-15s %-10s %-11s\n", "", "Op-level opt", "Graph-level opt", "Joint opt", "Open-source")
	rows := [][5]string{
		{"NeoCPU", "yes", "yes", "yes", "yes"},
		{"MXNet/TensorFlow", "3rd party", "limited", "no", "yes"},
		{"OpenVINO", "3rd party", "limited", "?", "no"},
		{"Original TVM", "incomplete", "yes", "no", "yes"},
		{"Glow", "single core", "yes", "no", "yes"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-12s %-15s %-10s %-11s\n", r[0], r[1], r[2], r[3], r[4])
	}
	return b.String()
}

// Table2Row is one model's simulated latencies across engines (milliseconds;
// 0 marks an unavailable engine).
type Table2Row struct {
	Model   string
	Display string
	// MS holds milliseconds per engine, in baselines.Engines() order.
	MS map[baselines.Engine]float64
	// Note is non-empty for footnoted entries (the OpenVINO SSD asterisk).
	Note string
}

// Table2 regenerates Table 2a/b/c for one target: all 15 models across all
// available engines at full core count.
func Table2(t *machine.Target) ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			return nil, err
		}
		row := Table2Row{Model: name, Display: spec.Display, MS: map[baselines.Engine]float64{}}
		for _, e := range baselines.Engines() {
			if !baselines.Available(e, t) {
				continue
			}
			p, err := baselines.Predict(e, name, t, 0)
			if err != nil {
				return nil, err
			}
			row.MS[e] = p.Seconds * 1000
		}
		if name == "ssd-resnet-50" && baselines.Available(baselines.EngineOpenVINO, t) {
			row.Note = "*OpenVINO does not measure the SSD multibox stage"
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders Table 2 rows.
func FormatTable2(t *machine.Target, rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 (%s): simulated batch-1 latency, ms (%d cores, %v)\n\n", t.Name, t.Cores, t.ISA)
	fmt.Fprintf(&b, "%-16s", "Unit: ms")
	for _, e := range baselines.Engines() {
		if baselines.Available(e, t) {
			fmt.Fprintf(&b, " %12s", e)
		}
	}
	fmt.Fprintln(&b)
	var notes []string
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s", r.Display)
		for _, e := range baselines.Engines() {
			if !baselines.Available(e, t) {
				continue
			}
			ms := r.MS[e]
			mark := " "
			if best(r, t) == e {
				mark = "*"
			}
			_ = mark
			if r.Note != "" && e == baselines.EngineOpenVINO {
				fmt.Fprintf(&b, " %11.2f*", ms)
			} else {
				fmt.Fprintf(&b, " %12.2f", ms)
			}
		}
		fmt.Fprintln(&b)
		if r.Note != "" {
			notes = append(notes, r.Note)
		}
	}
	for _, n := range notes {
		fmt.Fprintf(&b, "\n(%s)\n", n)
	}
	return b.String()
}

// best returns the fastest engine for a row.
func best(r Table2Row, t *machine.Target) baselines.Engine {
	var bestE baselines.Engine
	bestMS := 0.0
	for _, e := range baselines.Engines() {
		ms, ok := r.MS[e]
		if !ok {
			continue
		}
		if bestE == "" || ms < bestMS {
			bestE, bestMS = e, ms
		}
	}
	return bestE
}

// Table3Row is one model's ablation: cumulative speedup over the NCHW
// baseline after each optimization stage (Table 3).
type Table3Row struct {
	Model         string
	BaselineMS    float64
	LayoutOpt     float64 // speedup after NCHW[x]c blocking
	TransformElim float64 // + graph-level transform elimination
	GlobalSearch  float64 // + optimization scheme search
}

// table3Models are the representatives the paper picks ("in each comparison
// we only pick one network from a network family").
var table3Models = []string{"resnet-50", "vgg-19", "densenet-201", "inception-v3", "ssd-resnet-50"}

// Table3 regenerates the ablation on the Intel Skylake target.
func Table3() ([]Table3Row, error) {
	t := machine.IntelSkylakeC5()
	var rows []Table3Row
	for _, name := range table3Models {
		spec, err := models.Get(name)
		if err != nil {
			return nil, err
		}
		lat := map[core.OptLevel]float64{}
		for _, level := range []core.OptLevel{core.OptNone, core.OptLayout, core.OptTransformElim, core.OptGlobalSearch} {
			// The ablation reproduces the paper's Table 3, which predates
			// the Winograd extension: all four rows run the direct template.
			opts := core.Options{Level: level, NoPrepack: true, DisableWinograd: true}
			if level == core.OptGlobalSearch {
				opts.Search = search.Options{
					MaxCands:  10,
					ForcePBQP: spec.UsePBQP,
					Threads:   t.Cores,
					Backend:   machine.BackendPool,
					DB:        core.SharedScheduleDB(t, t.Cores, machine.BackendPool),
				}
			}
			g, err := models.BuildShapeOnly(name)
			if err != nil {
				return nil, err
			}
			m, err := core.Compile(g, t, opts)
			if err != nil {
				return nil, fmt.Errorf("report: table3 %s/%v: %w", name, level, err)
			}
			lat[level] = m.PredictLatency(core.PredictConfig{})
		}
		rows = append(rows, Table3Row{
			Model:         spec.Display,
			BaselineMS:    lat[core.OptNone] * 1000,
			LayoutOpt:     lat[core.OptNone] / lat[core.OptLayout],
			TransformElim: lat[core.OptNone] / lat[core.OptTransformElim],
			GlobalSearch:  lat[core.OptNone] / lat[core.OptGlobalSearch],
		})
	}
	return rows, nil
}

// FormatTable3 renders the ablation table.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: cumulative speedup over the NCHW baseline (Intel Skylake)\n\n")
	fmt.Fprintf(&b, "%-18s", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, " %14s", r.Model)
	}
	fmt.Fprintln(&b)
	line := func(label string, f func(Table3Row) float64) {
		fmt.Fprintf(&b, "%-18s", label)
		for _, r := range rows {
			fmt.Fprintf(&b, " %14.2f", f(r))
		}
		fmt.Fprintln(&b)
	}
	line("Baseline", func(Table3Row) float64 { return 1 })
	line("Layout Opt.", func(r Table3Row) float64 { return r.LayoutOpt })
	line("Transform Elim.", func(r Table3Row) float64 { return r.TransformElim })
	line("Global Search", func(r Table3Row) float64 { return r.GlobalSearch })
	return b.String()
}

// Figure4Series is one engine's throughput curve.
type Figure4Series struct {
	Label string
	// ImagesPerSec[i] is the throughput at i+1 threads.
	ImagesPerSec []float64
}

// Figure4Spec identifies one of the three scalability sub-figures.
type Figure4Spec struct {
	Name   string
	Model  string
	Target *machine.Target
}

// Figure4Specs returns the paper's three sub-figures.
func Figure4Specs() []Figure4Spec {
	return []Figure4Spec{
		{"figure4a", "resnet-50", machine.IntelSkylakeC5()},
		{"figure4b", "vgg-19", machine.AMDEpycM5a()},
		{"figure4c", "inception-v3", machine.ARMCortexA72()},
	}
}

// Figure4 regenerates one scalability sub-figure: throughput vs thread count
// for the library baselines, NeoCPU over OpenMP, and NeoCPU over its own
// thread pool.
func Figure4(spec Figure4Spec) ([]Figure4Series, error) {
	t := spec.Target
	var series []Figure4Series
	type variant struct {
		label   string
		engine  baselines.Engine
		backend machine.ThreadBackend
		useEng  bool // engine default backend
	}
	variants := []variant{
		{"MXNet", baselines.EngineMXNet, 0, true},
		{"TensorFlow", baselines.EngineTensorFlow, 0, true},
		{"OpenVINO", baselines.EngineOpenVINO, 0, true},
		{"NeoCPU w/ OMP", baselines.EngineNeoCPU, machine.BackendOMP, false},
		{"NeoCPU w/ thread pool", baselines.EngineNeoCPU, machine.BackendPool, false},
	}
	for _, v := range variants {
		if !baselines.Available(v.engine, t) {
			continue
		}
		s := Figure4Series{Label: v.label}
		for n := 1; n <= t.Cores; n++ {
			var p baselines.Prediction
			var err error
			if v.useEng {
				p, err = baselines.Predict(v.engine, spec.Model, t, n)
			} else {
				p, err = baselines.PredictOnBackend(v.engine, spec.Model, t, n, v.backend)
			}
			if err != nil {
				return nil, err
			}
			s.ImagesPerSec = append(s.ImagesPerSec, 1/p.Seconds)
		}
		series = append(series, s)
	}
	return series, nil
}

// FormatFigure4 renders the curves as a text table plus an ASCII chart.
func FormatFigure4(spec Figure4Spec, series []Figure4Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 (%s): %s on %s — images/sec vs #threads\n\n", spec.Name, spec.Model, spec.Target.Name)
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, s := range series {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	fmt.Fprintln(&b)
	for n := 0; n < spec.Target.Cores; n++ {
		fmt.Fprintf(&b, "%-8d", n+1)
		for _, s := range series {
			fmt.Fprintf(&b, " %22.2f", s.ImagesPerSec[n])
		}
		fmt.Fprintln(&b)
	}
	b.WriteString("\n")
	b.WriteString(ChartFigure4(spec, series))
	return b.String()
}

// ChartFigure4 renders an ASCII line chart of the throughput curves: rows
// are throughput bands (top = max), columns are thread counts, and each
// series is drawn with its own marker.
func ChartFigure4(spec Figure4Spec, series []Figure4Series) string {
	const height = 16
	markers := []byte{'#', 'o', 'x', '+', '*'}
	maxV := 0.0
	for _, s := range series {
		for _, v := range s.ImagesPerSec {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		return ""
	}
	cols := spec.Target.Cores
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols*2))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for n, v := range s.ImagesPerSec {
			row := height - 1 - int(v/maxV*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			grid[row][n*2] = m
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.1f ┤", maxV)
	b.Write(grid[0])
	b.WriteString("\n")
	for r := 1; r < height; r++ {
		label := "        "
		if r == height-1 {
			label = fmt.Sprintf("%8.1f", 0.0)
		}
		fmt.Fprintf(&b, "%s ┤", label)
		b.Write(grid[r])
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "         └%s\n", strings.Repeat("─", cols*2))
	fmt.Fprintf(&b, "          1%sthreads%s%d\n", strings.Repeat(" ", max(0, cols-9)), strings.Repeat(" ", max(0, cols-9)), cols)
	for si, s := range series {
		fmt.Fprintf(&b, "          %c %s\n", markers[si%len(markers)], s.Label)
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
