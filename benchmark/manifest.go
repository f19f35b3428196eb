package main

import "encoding/json"

// runSeconds is how long the driver has every run measure.
const runSeconds = 20

// manifest renders BENCHMARK.json from the catalog, so the driver's view of
// the benchmark and bounds.go cannot drift apart: `go run ./benchmark
// -manifest > BENCHMARK.json`, and a test compares the two. The driver takes
// one bound per metric, so a metric bounded differently on the two kinds of
// workload is listed with the wider bound.
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gateMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []gateMetric `json:"end_to_end"`
		PerLayer   []layer      `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, workload{w.name, w.why})
	}
	for _, m := range endToEnd {
		if m.gate {
			out.EndToEnd = append(out.EndToEnd, gateMetric{m.name, m.unit, m.better, max(m.b1, m.serving)})
		}
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{m.name, m.unit, m.better})
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}
