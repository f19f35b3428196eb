// Command neocpu-bench regenerates the tables and figures of the paper's
// evaluation section (Section 4) from the simulators in this repository.
//
// Usage:
//
//	neocpu-bench -experiment all
//	neocpu-bench -experiment table2a
//	neocpu-bench -experiment figure4c
//	neocpu-bench -arena-guard ci/arena-baseline.json
//
// Experiments: table1, table2a (Intel), table2b (AMD), table2c (ARM),
// table3 (optimization ablation), figure4a/b/c (thread scalability), all.
//
// -arena-guard is the one job here that is not a paper table: it compiles
// a fixed set of models and fails if the memory planner's arena grows more
// than 10% over a committed baseline (see arena.go). Host latency is
// measured by the benchmark under benchmark/, not by this command.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/report"
	"repro/pkg/neocpu"
)

func main() {
	exp := flag.String("experiment", "all", "table1|table2a|table2b|table2c|table3|figure4a|figure4b|figure4c|all")
	arenaGuard := flag.String("arena-guard", "", "compare planned arena bytes against this baseline JSON and exit non-zero on >10% regression")
	arenaWrite := flag.String("write-arena-baseline", "", "measure planned arena bytes and (re)write this baseline JSON")
	flag.Parse()

	if *arenaWrite != "" {
		if err := writeArenaBaseline(*arenaWrite); err != nil {
			fatal(err)
		}
		return
	}
	if *arenaGuard != "" {
		got, err := measureArenaBytes()
		if err == nil {
			err = checkArenaBaseline(*arenaGuard, got)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	runners := map[string]func() error{
		"table1":   func() error { fmt.Println(report.Table1()); return nil },
		"table2a":  func() error { return runTable2("intel-skylake") },
		"table2b":  func() error { return runTable2("amd-epyc") },
		"table2c":  func() error { return runTable2("arm-cortex-a72") },
		"table3":   runTable3,
		"figure4a": func() error { return runFigure4(0) },
		"figure4b": func() error { return runFigure4(1) },
		"figure4c": func() error { return runFigure4(2) },
	}
	order := []string{"table1", "table2a", "table2b", "table2c", "table3", "figure4a", "figure4b", "figure4c"}

	if *exp == "all" {
		for _, name := range order {
			if err := runners[name](); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q (want one of %v or all)", *exp, order))
	}
	if err := run(); err != nil {
		fatal(err)
	}
}

func runTable2(targetName string) error {
	t, err := neocpu.ParseTarget(targetName)
	if err != nil {
		return err
	}
	rows, err := report.Table2(t)
	if err != nil {
		return err
	}
	fmt.Print(report.FormatTable2(t, rows))
	return nil
}

func runTable3() error {
	rows, err := report.Table3()
	if err != nil {
		return err
	}
	fmt.Print(report.FormatTable3(rows))
	return nil
}

func runFigure4(i int) error {
	spec := report.Figure4Specs()[i]
	series, err := report.Figure4(spec)
	if err != nil {
		return err
	}
	fmt.Print(report.FormatFigure4(spec, series))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neocpu-bench:", err)
	os.Exit(1)
}
