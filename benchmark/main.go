// Command benchmark is the repo's yardstick: four workloads that each stress
// a different layer, end-to-end metrics with fixed regression bounds, and a
// separate traced pass that attributes the time to layers from outside the
// program. See README.md in this directory.
//
//	go run ./benchmark                      every workload, each in a child process
//	go run ./benchmark -trace 1             the traced pass: per-layer metrics and span files
//	go run ./benchmark -json a.json         also append every run to a.json
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -smoke               tiny models, half a second per workload
//	go run ./benchmark -manifest            BENCHMARK.json as bounds.go defines it
//
// The driver's form runs one workload in this process and ends with one JSON
// line:
//
//	benchmark --workload resnet18-b1 --seed 1 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// config is one workload run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke swaps the full-size models for tiny ones so a test can exercise
	// every metric in seconds; its numbers mean nothing.
	smoke  bool
	outDir string
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// setups is how many times a workload repeats its set-up for a steady
// setup_s median; the smoke run has no use for a steady one.
func (c config) setups(n int) int {
	if c.smoke {
		return 2
	}
	return n
}

func (c config) newResult() *runResult {
	return &runResult{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		Metrics: metricSet{}, Env: currentEnvironment(),
	}
}

// count adds a generator phase's operations to the run's totals.
func (r *runResult) count(s *genStats) {
	r.Attempted += len(s.samples)
	r.Failed += s.failed
}

// noteWholeRun prints, beside the best-chunk metrics, the same statistics
// over the whole run, and the highest percentile the sample supports with
// ten samples beyond it.
func (r *runResult) noteWholeRun(lat []float64) {
	s := sortedCopy(lat)
	r.Notes = append(r.Notes,
		fmt.Sprintf("whole_run latency_p50_ms=%.6g latency_p90_ms=%.6g n=%d", percentile(s, 0.5), percentile(s, 0.9), len(s)),
		fmt.Sprintf("highest_supported_percentile p%g n=%d", highestSupported(len(s))*100, len(s)))
}

// noteOverload flags a phase whose generator ran later than the latency
// limit: its latencies then measure the generator, not the server.
func (r *runResult) noteOverload(s *genStats, limitMS float64) {
	if late := percentile(sortedCopy(s.latenessMS()), 0.99); late > limitMS {
		r.Notes = append(r.Notes, fmt.Sprintf("overloaded lateness_p99_ms=%.3f limit_ms=%g", late, limitMS))
	}
}

// finish derives the metrics every run ends with. The untraced pass reports
// fail_frac and the process's peak resident set; correctness is no failed
// operation in either pass.
func (r *runResult) finish() error {
	if r.Attempted == 0 {
		return fmt.Errorf("%s attempted no operation", r.Workload)
	}
	r.Correct = r.Failed == 0
	if r.Trace {
		return nil
	}
	r.Metrics.set("fail_frac", float64(r.Failed)/float64(r.Attempted))
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.Metrics.set("peak_rss_mib", rss)
	return nil
}

func runWorkload(cfg config) (*runResult, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %g", cfg.seconds)
	}
	if w.serving {
		return runServing(cfg)
	}
	return runB1(cfg)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process: resnet18-b1, mobilenet-b1, serve-steady or repo-churn (default: all four, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for input tensors and the model-choice sequence")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one workload measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass: per-layer metrics and span files instead of end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny models and half a second per workload: checks the harness, measures nothing")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for span files and scratch bundles")
	jsonPath := flag.String("json", "", "append every run to this result file (the input of -compare)")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the metric catalog defines it")
	flag.Parse()
	cfg.trace = trace != 0

	if *printManifest {
		raw, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(raw)
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files, got %d", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if cfg.smoke {
		cfg.seconds = 0.5
	}
	if cfg.workload == "" {
		if err := runAll(cfg, *jsonPath); err != nil {
			fatal(err)
		}
		return
	}

	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	res.printRows(os.Stdout)
	if *jsonPath != "" {
		if err := appendResult(*jsonPath, *res); err != nil {
			fatal(err)
		}
	}
	line, err := res.driverLine()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed\n", res.Workload, res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// runAll runs every workload in a fresh child process of this binary, so
// each starts with a cold schedule database and its own heap and peak RSS.
// The traced pass measures a third as long: it exists for attribution, and
// end-to-end numbers never come from it.
func runAll(cfg config, jsonPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	seconds := cfg.seconds
	if cfg.trace && !cfg.smoke {
		seconds = max(cfg.seconds/3, 4)
	}
	env := currentEnvironment()
	fmt.Printf("# nproc=%d T=%d GOMAXPROCS=%d go=%s commit=%s seed=%d seconds=%g trace=%t\n",
		env.NProc, env.T, env.GOMAXPROCS, env.GoVersion, env.Commit, cfg.seed, seconds, cfg.trace)
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
	}
	failed := false
	for _, w := range workloads {
		args := []string{
			"--workload", w.name,
			"--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"--trace", traceArg,
			"--out", cfg.outDir,
		}
		if cfg.smoke {
			args = append(args, "--smoke")
		}
		if jsonPath != "" {
			args = append(args, "--json", jsonPath)
		}
		child := exec.Command(self, args...)
		child.Stdout, child.Stderr = os.Stdout, os.Stderr
		if err := child.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
