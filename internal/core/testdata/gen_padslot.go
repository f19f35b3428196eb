//go:build ignore

// gen_padslot.go produced padslot_tiny-mobilenet.bundle, checked in next to
// it: an artifact bundle of tiny-mobilenet (weight seed 1, global search,
// intel-skylake-c5, 2 threads on the pool backend) saved by the last build
// whose depthwise template copied its input into an explicitly padded
// scratch buffer (`go run internal/core/testdata/gen_padslot.go` at commit
// 2977a72). That build planned a pad slot for every padded depthwise
// convolution, so the bundle records a larger arena_bytes than the current
// planner computes for the same schedules.
//
// The fixture is frozen — it exists so bundles saved before the depthwise
// pad slot was dropped keep loading — and this generator is kept only as
// provenance; re-running it against a current build would record the
// current arena and defeat the fixture's purpose.
//
// Usage (from the repo root, at the revision named above):
//
//	go run internal/core/testdata/gen_padslot.go
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
)

func main() {
	g, err := models.BuildAny("tiny-mobilenet", 1)
	if err != nil {
		panic(err)
	}
	m, err := core.Compile(g, machine.IntelSkylakeC5(), core.Options{
		Level: core.OptGlobalSearch, Threads: 2,
	})
	if err != nil {
		panic(err)
	}
	defer m.Close()
	const path = "internal/core/testdata/padslot_tiny-mobilenet.bundle"
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	if err := m.SaveBundle(f); err != nil {
		panic(err)
	}
	fmt.Println("wrote", path, "arena_bytes", m.PlanStats().ArenaBytes)
}
