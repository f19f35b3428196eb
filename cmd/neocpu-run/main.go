// Command neocpu-run compiles a model and actually executes it on this
// machine with a synthetic input, reporting the output (top-5 classes or
// detections) and the measured wall-clock latency of the Go kernels.
//
// Note the distinction from neocpu-bench: neocpu-bench predicts latency on
// the *simulated* paper targets (AVX-512/AVX2/NEON); neocpu-run measures the
// pure-Go kernels on the host.
//
// Usage:
//
//	neocpu-run -model resnet-18 -threads 8 -runs 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/tensor"
	"repro/pkg/neocpu"
)

func main() {
	model := flag.String("model", "resnet-18", "model name (see internal/models)")
	threads := flag.Int("threads", runtime.GOMAXPROCS(0), "execution threads")
	runs := flag.Int("runs", 3, "timed inference runs")
	levelName := flag.String("level", "global-search", "baseline-nchw|layout-opt|transform-elim|global-search")
	seed := flag.Uint64("seed", 42, "input seed")
	profile := flag.Bool("profile", false, "print a per-operator timing breakdown")
	flag.Parse()

	level, err := neocpu.ParseLevel(*levelName)
	if err != nil {
		fatal(err)
	}
	opts := []neocpu.Option{
		neocpu.WithOptLevel(level),
		neocpu.WithThreads(*threads),
	}

	// Compilation targets the Skylake descriptor by default: the schedule
	// search needs a machine model even though execution happens on the host.
	fmt.Printf("compiling %s at %v...\n", *model, level)
	start := time.Now()
	engine, err := neocpu.Compile(*model, opts...)
	if err != nil {
		fatal(err)
	}
	defer engine.Close()
	fmt.Printf("compiled in %v\n", time.Since(start).Round(time.Millisecond))

	in := engine.NewInput()
	in.FillRandom(*seed, 1)

	// A session reuses its tensor arena across the timed runs, so the
	// steady-state numbers measure kernels, not the allocator.
	sess, err := engine.NewSession()
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()

	var outs []*tensor.Tensor
	var best time.Duration
	for i := 0; i < *runs; i++ {
		s := time.Now()
		outs, err = sess.Run(ctx, in)
		if err != nil {
			fatal(err)
		}
		el := time.Since(s)
		if i == 0 || el < best {
			best = el
		}
		fmt.Printf("run %d: %v\n", i+1, el.Round(time.Microsecond))
	}
	fmt.Printf("best of %d runs: %v on %d host threads\n", *runs, best.Round(time.Microsecond), *threads)

	if *profile {
		_, prof, err := engine.RunProfiled(in)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nper-operator breakdown:\n%s", prof)
	}

	out := outs[0]
	if *model == "ssd-resnet-50" {
		n := out.Shape[1]
		fmt.Printf("\n%d detections (class score box):\n", n)
		for i := 0; i < n && i < 10; i++ {
			row := out.Data[i*6 : (i+1)*6]
			fmt.Printf("  class=%2.0f score=%.3f box=(%.3f %.3f %.3f %.3f)\n",
				row[0], row[1], row[2], row[3], row[4], row[5])
		}
		return
	}
	type pair struct {
		class int
		p     float32
	}
	ps := make([]pair, out.Shape[1])
	for i := range ps {
		ps[i] = pair{i, out.Data[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].p > ps[j].p })
	fmt.Println("\ntop-5 classes:")
	for _, p := range ps[:5] {
		fmt.Printf("  class %4d  p=%.5f\n", p.class, p.p)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neocpu-run:", err)
	os.Exit(1)
}
