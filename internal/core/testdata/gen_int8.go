//go:build ignore

// gen_int8.go produced int8_tiny-cnn.bundle, checked in next to it: an
// artifact bundle of tiny-cnn (weight seed 1, transform-elim,
// intel-skylake-c5, 1 thread on the serial backend) compiled as a quantized
// int8 module and saved by the last build that had an int8 path (`go run
// internal/core/testdata/gen_int8.go` at commit 623f36a). Its header sets
// "int8": true and its blocked convolutions are stored as "qpacked" entries.
//
// The fixture is frozen — it exists so a bundle saved by an int8-capable
// build keeps failing to load with artifact.ErrInt8Bundle, never loading as
// fp32 — and this generator is kept only as provenance; the current build
// has no Options.Int8 and cannot run it.
//
// Usage (from the repo root, at the revision named above):
//
//	go run internal/core/testdata/gen_int8.go
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
)

func main() {
	g, err := models.BuildAny("tiny-cnn", 1)
	if err != nil {
		panic(err)
	}
	m, err := core.Compile(g, machine.IntelSkylakeC5(), core.Options{
		Level: core.OptTransformElim, Threads: 1, Backend: machine.BackendSerial, Int8: true,
	})
	if err != nil {
		panic(err)
	}
	defer m.Close()
	const path = "internal/core/testdata/int8_tiny-cnn.bundle"
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	if err := m.SaveBundle(f); err != nil {
		panic(err)
	}
	fmt.Println("wrote", path, "int8", m.Int8)
}
