package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

// servingOnly reports whether a per-layer metric is measured at a layer only
// the serving workloads have.
func servingOnly(name string) bool {
	for _, prefix := range []string{"serve.", "net.", "metrics.", "loadgen."} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// The -smoke run: every workload, tiny models, half a second each, both
// passes. It measures nothing; it asserts that every normative metric is
// emitted with its unit by every workload it applies to, and that the
// driver's line has exactly the contract's shape.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, seconds: 0.5, trace: trace, smoke: true, outDir: t.TempDir()}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if trace {
				for _, m := range perLayer {
					v, ok := res.Metrics[m.name]
					if servingOnly(m.name) && !w.serving {
						if ok {
							t.Errorf("%s emitted %s, which it has no layer for", w.name, m.name)
						}
						continue
					}
					if !ok || v.Unit != m.unit {
						t.Errorf("%s: per-layer metric %s missing or unit %q, want %q", w.name, m.name, v.Unit, m.unit)
					}
				}
				if _, err := os.Stat(traceFile(cfg.outDir, w.name)); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			} else {
				for _, m := range endToEnd {
					_, applies := m.bound(w)
					v, ok := res.Metrics[m.name]
					if applies != ok {
						t.Errorf("%s: end-to-end metric %s emitted=%v, applies=%v", w.name, m.name, ok, applies)
					}
					if ok && v.Unit != m.unit {
						t.Errorf("%s: %s has unit %q, want %q", w.name, m.name, v.Unit, m.unit)
					}
					if ok && m.gate && v.Value <= 0 {
						t.Errorf("%s: gate metric %s = %g, must never be 0", w.name, m.name, v.Value)
					}
				}
			}
			checkDriverLine(t, res)
		}
	}
}

func checkDriverLine(t *testing.T, res *runResult) {
	t.Helper()
	raw, err := res.driverLine()
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(raw, &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("driver line has keys %v, want exactly correct/attempted/failed/metrics", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if res.Trace {
		for _, m := range perLayer {
			want[m.name] = m.unit
		}
	} else {
		for _, m := range endToEnd {
			if m.gate {
				want[m.name] = m.unit
			}
		}
	}
	if len(metrics) != len(want) {
		t.Errorf("%s trace=%v: driver line carries %d metrics, want %d", res.Workload, res.Trace, len(metrics), len(want))
	}
	for name, unit := range want {
		m := metrics[name]
		if len(m) != 2 || m["unit"] != unit {
			t.Errorf("driver metric %s = %v, want exactly a value and unit %q", name, m, unit)
		}
		if _, ok := m["value"].(float64); !ok {
			t.Errorf("driver metric %s has no numeric value", name)
		}
	}
}

// BENCHMARK.json is generated from the catalog and must stay inside the
// driver's limits.
func TestManifestMatchesCatalog(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from the catalog: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or used twice", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	gates := 0
	for _, m := range endToEnd {
		check(m.name, m.unit)
		if m.gate {
			gates++
			if b := max(m.b1, m.serving); b <= 0 || b > 0.25 || m.absolute {
				t.Errorf("gate metric %s needs a relative bound in (0, 0.25], got %g", m.name, b)
			}
		}
	}
	for _, m := range perLayer {
		check(m.name, m.unit)
	}
	if gates < 1 || gates > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d gate metrics, %d per-layer metrics, %d workloads: outside the contract", gates, len(perLayer), len(workloads))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q or its why is malformed", w.name)
		}
	}
}

// The correctness gate must be able to fail: the same architecture with
// different weights is a wrong answer, while the searched kernels against
// the NCHW reference kernels are a right one.
func TestToleranceSeparatesRightFromWrong(t *testing.T) {
	build := registryModel("tiny-resnet")
	g, err := build()
	if err != nil {
		t.Fatal(err)
	}
	inputs := seededInputs(1, 2, g.Input.OutShape.Dims)
	refs, err := b1References(build, 2, inputs)
	if err != nil {
		t.Fatal(err)
	}
	env, bad, err := b1Setup(build, 2, inputs, refs)
	if err != nil {
		t.Fatal(err)
	}
	env.mod.Close()
	if bad != 0 {
		t.Errorf("%d of %d warm-up outputs missed the reference", bad, b1Warmup)
	}
	other := func() (*core.Module, error) {
		return core.Compile(models.TinyResNet(weightSeed+1), defaultTarget(), compileOptions(2))
	}
	mod, err := other()
	if err != nil {
		t.Fatal(err)
	}
	defer mod.Close()
	outs, err := mod.Run(inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if withinTolerance(outs[0], refs[0]) {
		t.Error("a model with different weights passed the correctness gate")
	}
}
