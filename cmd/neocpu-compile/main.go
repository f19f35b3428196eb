// Command neocpu-compile compiles one of the evaluated models for a CPU
// target and reports what the optimization pipeline did: graph statistics
// before and after the passes, the chosen convolution schemes, the number of
// surviving layout transforms, and the predicted end-to-end latency.
//
// Usage:
//
//	neocpu-compile -model resnet-50 -target intel-skylake -level global-search
//
// With -o the command emits a deployable artifact bundle (execution plan,
// packed weights, graph metadata, target signature) that neocpu-serve -repo
// and neocpu.LoadBundle bring up without searching or packing:
//
//	neocpu-compile -model resnet-18 -o models/resnet-18.neob
//
// Emitting a bundle compiles the model executably (weights materialized and
// packed), so it costs more memory and time than the default predict-only
// report.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/pkg/neocpu"
)

func main() {
	model := flag.String("model", "resnet-50", "model name (see internal/models)")
	targetName := flag.String("target", "intel-skylake", strings.Join(neocpu.TargetNames(), "|"))
	levelName := flag.String("level", "global-search", "baseline-nchw|layout-opt|transform-elim|global-search")
	threads := flag.Int("threads", 0, "execution width (0 = all cores)")
	showSchemes := flag.Bool("schemes", false, "print the chosen scheme per convolution")
	savePlan := flag.String("saveplan", "", "write the chosen schemes to this JSON file (re-apply with core.CompileWithPlan)")
	saveBundle := flag.String("o", "", "write a deployable artifact bundle (plan + packed weights) to this file; compiles executably instead of predict-only")
	seed := flag.Uint64("seed", 42, "synthetic-weight seed (bundles record it for graph rebuilding)")
	flag.Parse()

	level, err := neocpu.ParseLevel(*levelName)
	if err != nil {
		fatal(err)
	}

	copts := []neocpu.Option{
		neocpu.WithTarget(*targetName),
		neocpu.WithOptLevel(level),
		neocpu.WithThreads(*threads),
		neocpu.WithSeed(*seed),
		// Match the candidate cap the report/baselines simulators use, so
		// printed schemes and saved plans agree with the regenerated tables.
		neocpu.WithSearch(neocpu.SearchOptions{MaxCands: 10}),
	}
	if *saveBundle == "" {
		// Compilation only: WithPredictOnly skips weight materialization, so
		// even VGG-19 compiles in a few MB. Bundles need the real packed
		// weights, so -o compiles executably.
		copts = append(copts, neocpu.WithPredictOnly())
	}
	var engine *neocpu.Engine
	if slices.Contains(models.TinyNames(), *model) {
		// The tiny-* smoke models live outside the paper registry; they are a
		// few KB, so they always compile executably.
		g, gerr := models.BuildAny(*model, *seed)
		if gerr != nil {
			fatal(gerr)
		}
		engine, err = neocpu.CompileGraph(g, copts...)
	} else {
		engine, err = neocpu.Compile(*model, copts...)
	}
	if err != nil {
		fatal(err)
	}
	defer engine.Close()
	pre, post := engine.Stats()
	g := engine.Graph()
	in := engine.InputShape()

	fmt.Printf("model:    %s (input %dx%dx%d)\n", *model, in[1], in[2], in[3])
	fmt.Printf("target:   %s\n", engine.Target())
	fmt.Printf("level:    %v\n", engine.Level())
	fmt.Printf("graph:    %d nodes -> %d nodes after passes (%d convs, %.2f GFLOPs, %.1fM params)\n",
		pre.Nodes, post.Nodes, post.Convs, post.FLOPs/1e9, float64(post.Params)/1e6)
	fmt.Printf("layout:   %d transform nodes survive (%d physically free)\n",
		g.CountTransforms(), g.CountTransforms()-engine.TransformCount())
	if s, ok := engine.SearchStats(); ok {
		fmt.Printf("search:   %s over %d convs, %d edges, %d candidate states in %v\n",
			s.Algorithm, s.Vars, s.Edges, s.States, s.Elapsed.Round(1000))
	}
	fmt.Printf("latency:  %.2f ms predicted on %d cores\n", engine.PredictLatency()*1000, engine.Threads())

	if *savePlan != "" {
		f, err := os.Create(*savePlan)
		if err != nil {
			fatal(err)
		}
		if err := engine.SavePlan(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("plan:     %d schemes written to %s\n", len(g.Convs()), *savePlan)
	}

	if *saveBundle != "" {
		f, err := os.Create(*saveBundle)
		if err != nil {
			fatal(err)
		}
		if err := engine.SaveBundle(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fi, err := os.Stat(*saveBundle)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("bundle:   %d KiB written to %s (load with neocpu-serve -repo or neocpu.LoadBundle)\n",
			fi.Size()/1024, *saveBundle)
	}

	if *showSchemes {
		fmt.Println("\nschemes:")
		convs := g.Convs()
		sort.SliceStable(convs, func(i, j int) bool { return convs[i].ID < convs[j].ID })
		for _, n := range convs {
			wl := graph.ConvWorkload(n)
			fmt.Printf("  %-10s %-40s %v\n", n.Name, wl.Key(), n.Sched)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neocpu-compile:", err)
	os.Exit(1)
}
