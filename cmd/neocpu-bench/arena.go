package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/models"
)

// This file implements the arena regression guard: CI compiles a fixed set
// of models under a pinned configuration and fails when the memory planner's
// arena footprint grows more than arenaGuardSlack over the committed
// baseline. The planner's savings are a load-bearing property (every serving
// session holds one arena, and the repository's arena budget charges them),
// so regressions must be explicit —
// a legitimate growth updates the baseline file with -write-arena-baseline.

// arenaGuardSlack is the tolerated growth over the baseline (10%).
const arenaGuardSlack = 0.10

// arenaGuardModels is the guarded set: a residual chain, a branch-and-concat
// graph, a dense fan-in and a depthwise-separable chain — the reuse patterns
// the planner exploits.
var arenaGuardModels = []struct {
	name string
	mk   func(uint64) *graph.Graph
}{
	{"tiny-resnet", models.TinyResNet},
	{"tiny-inception", models.TinyInception},
	{"tiny-densenet", models.TinyDenseNet},
	{"tiny-mobilenet", models.TinyMobileNet},
}

// arenaGuardCompile pins the guard configuration: the full search pipeline
// with a 4-wide pool over the planner's level-granular slot lifetimes.
func arenaGuardCompile(mk func(uint64) *graph.Graph) (*core.Module, error) {
	return core.Compile(mk(1), machine.IntelSkylakeC5(), core.Options{
		Level: core.OptGlobalSearch, Threads: 4,
	})
}

func measureArenaBytes() (map[string]int, error) {
	out := make(map[string]int, len(arenaGuardModels))
	for _, gm := range arenaGuardModels {
		m, err := arenaGuardCompile(gm.mk)
		if err != nil {
			return nil, fmt.Errorf("neocpu-bench: arena guard: compiling %s: %w", gm.name, err)
		}
		out[gm.name] = m.PlanStats().ArenaBytes
		m.Close()
	}
	return out, nil
}

func writeArenaBaseline(path string) error {
	got, err := measureArenaBytes()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("wrote %s: %v\n", path, got)
	return f.Close()
}

// checkArenaBaseline compares the measured planned arena bytes got against
// the baseline file at path. The error names every model that regressed or
// has no baseline entry.
func checkArenaBaseline(path string, got map[string]int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("neocpu-bench: arena guard: %w", err)
	}
	var baseline map[string]int
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("neocpu-bench: arena guard: parsing %s: %w", path, err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		base, ok := baseline[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: no baseline entry (regenerate with -write-arena-baseline)", name))
			continue
		}
		limit := int(float64(base) * (1 + arenaGuardSlack))
		status := "ok"
		if got[name] > limit {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: planned arena %d B exceeds baseline %d B by more than %.0f%%", name, got[name], base, arenaGuardSlack*100))
		}
		fmt.Printf("arena-guard %-16s planned=%8d baseline=%8d limit=%8d %s\n", name, got[name], base, limit, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("neocpu-bench: arena guard: %d model(s) regressed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
