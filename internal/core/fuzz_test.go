package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// randomGraph builds a structurally random but valid CNN from a seed:
// conv/BN/ReLU/pool/residual/concat stages followed by a classifier head.
// It is the generator for the differential test below.
func randomGraph(seed uint64) *graph.Graph {
	rng := seed
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}

	b := graph.NewBuilder("fuzz", seed)
	x := b.Input(3, 32, 32)
	h := 32
	// Track same-shape candidates for residual connections.
	var residualPool []*graph.Node

	layers := 3 + next(5)
	for i := 0; i < layers; i++ {
		outC := []int{8, 12, 16, 24}[next(4)]
		k := []int{1, 3, 5}[next(3)]
		stride := 1
		if h >= 8 && next(4) == 0 {
			stride = 2
		}
		x = b.Conv(x, outC, k, stride, k/2)
		h = (h+2*(k/2)-k)/stride + 1
		if next(2) == 0 {
			x = b.BatchNorm(x)
		}
		if next(3) != 0 {
			x = b.ReLU(x)
		}
		if next(4) == 0 {
			x = b.Dropout(x)
		}
		// Residual add against an earlier same-shape tensor.
		for _, cand := range residualPool {
			if cand.OutShape.Equal(x.OutShape) && next(2) == 0 {
				x = b.Add(x, cand)
				break
			}
		}
		residualPool = append(residualPool, x)
		// Occasional concat branch.
		if next(4) == 0 {
			branch := b.ReLU(b.Conv(x, 8, 1, 1, 0))
			x = b.Concat(x, branch)
			residualPool = nil // shapes changed
		}
		if h >= 8 && next(3) == 0 {
			x = b.MaxPool(x, 2, 2, 0)
			h /= 2
			residualPool = nil
		}
	}
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	x = b.Dense(x, 10)
	return b.Finish(b.Softmax(x))
}

// TestFuzzOptLevelsAgree is the differential property test: for randomly
// generated graphs, every optimization level, precision aside, and every
// thread count must compute the same function as the unoptimized
// serial NCHW baseline.
func TestFuzzOptLevelsAgree(t *testing.T) {
	tgt := skylake()
	for seed := uint64(1); seed <= 12; seed++ {
		g := randomGraph(seed)
		in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
		in.FillRandom(seed*31, 1)

		base, err := Compile(randomGraph(seed), tgt, Options{Level: OptNone, Threads: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := base.Run(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		cases := []Options{
			{Level: OptLayout, Threads: 1},
			{Level: OptTransformElim, Threads: 3},
			{Level: OptGlobalSearch, Threads: 2},
			{Level: OptTransformElim, Threads: 2, DisableFusion: true},
			{Level: OptTransformElim, Threads: 1, DisableBNFold: true},
		}
		for ci, opts := range cases {
			m, err := Compile(randomGraph(seed), tgt, opts)
			if err != nil {
				t.Fatalf("seed %d case %d: %v", seed, ci, err)
			}
			got, err := m.Run(in)
			if err != nil {
				t.Fatalf("seed %d case %d: %v", seed, ci, err)
			}
			if !tensor.AllClose(want[0], got[0], 1e-4) {
				t.Fatalf("seed %d case %d (%+v): output diverges by %g",
					seed, ci, opts, tensor.MaxAbsDiff(want[0], got[0]))
			}
			m.Close()
		}
		_ = g
	}
}

// FuzzLoadPlan hammers plan parsing and resolution with corrupted,
// truncated and mutated plan files. The contract under fuzz: LoadPlan and
// PlanFile.Apply never panic, and every rejection is typed —
// errors.Is(err, ErrInvalidPlan) — so deployment tooling can distinguish "this
// plan file is bad" from an internal failure without string matching.
func FuzzLoadPlan(f *testing.F) {
	// Seed with a genuine plan (saved from a searched compile), truncations
	// of it, and targeted corruptions of every field the loader validates.
	m, err := Compile(models.TinyResNet(1), skylake(), Options{Level: OptGlobalSearch, NoPrepack: true})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SavePlan(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:7])
	f.Add([]byte{})
	f.Add([]byte("not json at all"))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"entries":null}`))
	f.Add([]byte(`{"model":"m","target":"t","entries":[{"conv":"c","layout":"qqq"}]}`))
	f.Add([]byte(`{"entries":[{"conv":"c","layout":"nchwc","ic_bn":-8,"oc_bn":0}]}`))
	f.Add([]byte(`{"entries":[{"conv":"c","layout":"nchw","algorithm":"winograd"}]}`))
	f.Add([]byte(`{"entries":[{"conv":"c","layout":"nchwc","ic_bn":3,"oc_bn":16,"algorithm":"fft"}]}`))
	f.Add([]byte(`{"entries":[{"conv":"c"},{"conv":"c"}]}`))
	f.Add(bytes.Replace(valid, []byte(`"nchwc"`), []byte(`"nhwc"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"algorithm": "winograd"`), []byte(`"algorithm": "direct "`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := LoadPlan(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalidPlan) {
				t.Fatalf("LoadPlan returned an untyped error: %v", err)
			}
			return
		}
		// Whatever parsed must resolve against a real graph without
		// panicking; rejections stay typed.
		g := models.TinyResNet(1)
		if _, err := pf.Apply(g); err != nil && !errors.Is(err, ErrInvalidPlan) {
			t.Fatalf("Apply returned an untyped error: %v", err)
		}
	})
}
