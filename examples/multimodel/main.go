// Multi-model serving walkthrough: three models are compiled once into
// artifact bundles (the neocpu-compile -o format), then brought up through a
// model registry whose arena budget only fits two at a time — so the third
// load must evict the least-recently-used idle model, and a later request
// for the evicted model reloads it on demand. This is the repository half of
// the paper's serving setting: compilation (minutes of search) happens once,
// offline; the serving host only deserializes finished plans and packed
// weights.
//
//	go run ./examples/multimodel
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func main() {
	dir, err := os.MkdirTemp("", "neocpu-repo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Offline: compile each model and emit its bundle. ---
	names := []string{"tiny-cnn", "tiny-resnet", "tiny-vgg"}
	arenas := map[string]int{}
	fmt.Println("compiling bundles (once, offline):")
	for _, name := range names {
		g, err := models.BuildAny(name, 1)
		if err != nil {
			log.Fatal(err)
		}
		m, err := core.Compile(g, machine.IntelSkylakeC5(), core.Options{
			Level: core.OptTransformElim, Threads: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.SaveBundle(&buf); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(dir, name+serve.BundleExt)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		arenas[name] = m.PlanStats().ArenaBytes
		m.Close()
		fmt.Printf("  %-12s %3d KiB bundle, %3d KiB arena/session\n",
			name, buf.Len()/1024, arenas[name]/1024)
	}

	// --- Online: a registry whose budget fits any two models (one session
	// each) but never all three. ---
	budget := arenas["tiny-cnn"] + arenas["tiny-resnet"] + arenas["tiny-vgg"] - 1
	overrides := map[string]serve.Config{}
	for _, name := range names {
		overrides[name] = serve.Config{PoolSize: 1}
	}
	reg, err := serve.NewRegistry(
		&serve.DirSource{Dir: dir, Resolve: models.ResolveGraph},
		serve.RegistryConfig{
			ArenaBudget: budget,
			Overrides:   overrides,
			LoadOptions: core.Options{Threads: 1},
		},
	)
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()
	fmt.Printf("\nregistry budget: %d KiB (any two fit, all three never do)\n", budget/1024)

	report := func(when string) {
		fmt.Printf("%s:\n", when)
		for _, m := range reg.Index() {
			fmt.Printf("  %-12s %-9s (%d KiB reserved)\n", m.Name, m.State, m.ArenaReservedBytes/1024)
		}
	}

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(reg.Load("tiny-cnn"))
	must(reg.Load("tiny-resnet"))
	report("\nafter loading tiny-cnn and tiny-resnet")

	// Touch tiny-cnn so tiny-resnet becomes the least recently used.
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(7, 1)
	if _, err := reg.Infer(context.Background(), "tiny-cnn", in); err != nil {
		log.Fatal(err)
	}

	// The third load does not fit: the registry evicts the LRU idle model.
	must(reg.Load("tiny-vgg"))
	report("\nafter loading tiny-vgg (tiny-resnet was LRU -> evicted)")

	// The evicted model is gone until someone asks for it again...
	if _, err := reg.Infer(context.Background(), "tiny-resnet", in); err != nil {
		fmt.Printf("\ninfer on evicted model: %v\n", err)
	}
	// ...at which point an explicit load brings it back, evicting in turn.
	must(reg.Load("tiny-resnet"))
	outs, err := reg.Infer(context.Background(), "tiny-resnet", in)
	if err != nil {
		log.Fatal(err)
	}
	report("\nafter reloading tiny-resnet")
	fmt.Printf("\nreloaded tiny-resnet serves: output %v, first logits %.4f %.4f %.4f\n",
		outs[0].Shape, outs[0].Data[0], outs[0].Data[1], outs[0].Data[2])
	fmt.Printf("evictions: %d\n", reg.Evictions())
}
