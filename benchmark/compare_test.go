package main

import (
	"bytes"
	"strings"
	"testing"
)

// The fixtures hold three untraced resnet18-b1 runs and one serve-steady run
// a side (plus a traced run that must be ignored), arranged to produce each
// verdict.
func TestCompareVerdictsOnFixtures(t *testing.T) {
	a, err := readResults("testdata/compare_a.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := readResults("testdata/compare_b.json")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, c := range compareResults(a, b) {
		got[c.workload+" "+c.metric] = c.verdict
	}
	want := map[string]string{
		// Faster set-up is not a regression; the verdicts have no "better".
		"resnet18-b1 setup_s": verdictSame,
		// +30%: past any bound the catalog may hold (the driver caps them at 25%).
		"resnet18-b1 compile_s": verdictWorse,
		// +1.5%; the traced run's 9999 ms is ignored.
		"resnet18-b1 latency_p50_ms": verdictSame,
		// Side b's own runs range over 37% of their median: no bound of 25% or
		// less can be resolved, whatever the medians say.
		"resnet18-b1 latency_p90_ms": verdictUnresolved,
		// Higher is better: -31%.
		"resnet18-b1 throughput_ips": verdictWorse,
		// Absolute bound: +0.002 against 0.001.
		"resnet18-b1 fail_frac": verdictWorse,
		// An exact count that repeated exactly.
		"resnet18-b1 arena_mib":    verdictSame,
		"resnet18-b1 peak_rss_mib": verdictSame,
		// One run a side: spread cannot be judged, medians are.
		"serve-steady setup_s":        verdictSame,
		"serve-steady latency_p50_ms": verdictWorse, // +30%
		"serve-steady latency_p90_ms": verdictSame,
		"serve-steady latency_p99_ms": verdictSame,
		"serve-steady throughput_ips": verdictSame,
		"serve-steady saturation_rps": verdictSame,
		"serve-steady slo_miss_frac":  verdictWorse, // +0.02 against 0.01 absolute
		"serve-steady fail_frac":      verdictSame,
		"serve-steady peak_rss_mib":   verdictSame,
	}
	for row, v := range want {
		if got[row] != v {
			t.Errorf("%s: verdict %q, want %q", row, got[row], v)
		}
	}
	for row := range got {
		if _, ok := want[row]; !ok {
			t.Errorf("unexpected row %s", row)
		}
	}
}

func TestCompareFilesPrintsEveryRowWithItsBase(t *testing.T) {
	var out bytes.Buffer
	worse, err := compareFiles(&out, "testdata/compare_a.json", "testdata/compare_b.json")
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("the fixtures contain regressions; compareFiles reported none")
	}
	text := out.String()
	for _, want := range []string{"b/a", "base", "bound", "verdict", "unresolved", "0.001 abs", "25%"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	var same bytes.Buffer
	if worse, err := compareFiles(&same, "testdata/compare_a.json", "testdata/compare_a.json"); err != nil || worse {
		t.Errorf("a file compared with itself: worse=%v err=%v", worse, err)
	}
	if _, err := compareFiles(&same, "testdata/compare_a.json", "testdata/missing.json"); err == nil {
		t.Error("a missing file must be an error")
	}
}
