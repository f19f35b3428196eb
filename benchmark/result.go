package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricValue is one reported number. N is the sample count behind a timing
// (0 for counts and computed values).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects a run's metrics by name; units come from the catalog.
type metricSet map[string]metricValue

func unitOf(name string) string {
	if m, ok := findEndToEnd(name); ok {
		return m.unit
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("benchmark: metric " + name + " is not in the catalog (bounds.go)")
}

func (m metricSet) set(name string, v float64) { m.setN(name, v, 0) }

func (m metricSet) setN(name string, v float64, n int) {
	m[name] = metricValue{Value: v, Unit: unitOf(name), N: n}
}

// environment is the recorded environment block.
type environment struct {
	NProc      int    `json:"nproc"`
	T          int    `json:"t"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		T:          sizingT(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit asks git for the checked-out commit when started at the root of a
// work tree. Anywhere else (the driver's checkout is no repository) it is
// "unknown", without letting git search the directories above.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sizingT is the sizing rule every workload shares: kernel threads on the
// -b1 workloads, generator lanes on the serving ones.
func sizingT() int { return min(runtime.NumCPU(), 4) }

// runResult is one workload run.
type runResult struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Metrics   metricSet   `json:"metrics"`
	Notes     []string    `json:"notes,omitempty"`
	Env       environment `json:"env"`
}

// printRows writes one `workload metric value unit` row per metric, catalog
// order, timings with their sample counts.
func (r *runResult) printRows(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	order := catalogOrder()
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, n := range names {
		v := r.Metrics[n]
		row := fmt.Sprintf("%s %s %s %s", r.Workload, n, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
		if v.N > 0 {
			row += fmt.Sprintf(" n=%d", v.N)
		}
		fmt.Fprintln(w, row)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "%s %s\n", r.Workload, note)
	}
}

func catalogOrder() map[string]int {
	order := map[string]int{}
	for _, m := range endToEnd {
		order[m.name] = len(order)
	}
	for _, m := range perLayer {
		order[m.name] = len(order)
	}
	return order
}

// driverLine is the contract's last line of standard output: exactly these
// four keys, each metric exactly a value and a unit, only the metrics
// BENCHMARK.json lists for the pass (gate metrics untraced, every per-layer
// metric traced; a per-layer metric a workload does not exercise reads 0).
func (r *runResult) driverLine() ([]byte, error) {
	type driverValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]driverValue{}}
	if r.Trace {
		for _, m := range perLayer {
			out.Metrics[m.name] = driverValue{r.Metrics[m.name].Value, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			if !m.gate {
				continue
			}
			v, ok := r.Metrics[m.name]
			if !ok {
				return nil, fmt.Errorf("gate metric %s was not measured on %s", m.name, r.Workload)
			}
			out.Metrics[m.name] = driverValue{v.Value, m.unit}
		}
	}
	return json.Marshal(out)
}

// resultFile is what -json writes and -compare reads: every run appended, so
// one file can hold several runs of each workload.
type resultFile struct {
	Runs []runResult `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// appendResult adds a run to the file at path, creating it if need be.
func appendResult(path string, r runResult) error {
	rf, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	rf.Runs = append(rf.Runs, r)
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// peakRSSMiB is this process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kib, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
