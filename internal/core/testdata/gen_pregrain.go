//go:build ignore

// gen_pregrain.go produced the two generations of compatibility fixtures
// checked in next to it, each a plan file plus an artifact bundle of
// tiny-resnet saved by an older compiler:
//
//   - pregrain_tiny-resnet.*: saved BEFORE the schedule grain field existed
//     (`gen_pregrain.go pregrain 1` at the pre-grain revision).
//   - grain_tiny-resnet.*: saved by the last build that searched a parallel
//     grain (`gen_pregrain.go grain 4` at commit 4e3ac29, PR 11); searched at
//     4 threads, five of its six entries carry "grain": 4.
//
// The fixtures are frozen — they exist so plan/bundle loading keeps accepting
// artifacts from older builds (the grain key is ignored on read) — and this
// generator is kept only as provenance; re-running it against a current build
// would produce current-format artifacts and defeat the fixtures' purpose.
//
// Usage (from the repo root, at the revision named above):
//
//	go run internal/core/testdata/gen_pregrain.go <prefix> <threads>
package main

import (
	"fmt"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
)

func main() {
	prefix := os.Args[1]
	threads, err := strconv.Atoi(os.Args[2])
	if err != nil {
		panic(err)
	}
	g, err := models.BuildAny("tiny-resnet", 1)
	if err != nil {
		panic(err)
	}
	m, err := core.Compile(g, machine.IntelSkylakeC5(), core.Options{
		Level: core.OptGlobalSearch, Threads: threads,
	})
	if err != nil {
		panic(err)
	}
	defer m.Close()
	base := "internal/core/testdata/" + prefix + "_tiny-resnet"
	plan, err := os.Create(base + ".plan.json")
	if err != nil {
		panic(err)
	}
	defer plan.Close()
	if err := m.SavePlan(plan); err != nil {
		panic(err)
	}
	bundle, err := os.Create(base + ".bundle")
	if err != nil {
		panic(err)
	}
	defer bundle.Close()
	if err := m.SaveBundle(bundle); err != nil {
		panic(err)
	}
	fmt.Println("wrote", base+".{plan.json,bundle}")
}
