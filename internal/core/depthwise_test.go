package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/tensor"
)

// randomMobileGraph generates structurally random depthwise/grouped networks:
// depthwise-separable blocks, bare depthwise convolutions, grouped
// convolutions with channel expansion, residual adds and strides — the
// MobileNet-shaped counterpart of randomGraph, exercising shared-block
// depthwise schedules and per-group blocked schedules through every pass.
func randomMobileGraph(seed uint64) *graph.Graph {
	rng := seed
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}

	b := graph.NewBuilder("mobilefuzz", seed)
	x := b.Input(3, 24, 24)
	c := []int{8, 16, 24}[next(3)]
	x = b.ConvBNReLU(x, c, 3, 1, 1)
	h := 24
	var residualPool []*graph.Node

	blocks := 2 + next(4)
	for i := 0; i < blocks; i++ {
		switch next(4) {
		case 0:
			// Depthwise-separable with optional stride and channel change.
			stride := 1
			if h >= 8 && next(3) == 0 {
				stride = 2
			}
			newC := []int{c, c * 2, 16, 32}[next(4)]
			x = b.DepthwiseSeparable(x, newC, stride)
			c = newC
			if stride == 2 {
				h = (h-1)/2 + 1
				residualPool = nil
			}
		case 1:
			// Bare depthwise + BN + ReLU (channels preserved); sometimes 5x5.
			k := []int{3, 3, 5}[next(3)]
			x = b.ReLU(b.BatchNorm(b.DepthwiseConv(x, k, 1, k/2)))
		case 2:
			// Grouped convolution with 2 or 4 groups, optionally expanding.
			g := 2
			if c%4 == 0 && next(2) == 0 {
				g = 4
			}
			newC := c * []int{1, 2}[next(2)]
			x = b.ReLU(b.GroupedConv(x, newC, 3, 1, 1, g))
			c = newC
		default:
			// Dense 1x1 mixer keeps dense/blocked boundaries in play.
			x = b.ConvBNReLU(x, c, 1, 1, 0)
		}
		for _, cand := range residualPool {
			if cand.OutShape.Equal(x.OutShape) && next(2) == 0 {
				x = b.Add(x, cand)
				break
			}
		}
		residualPool = append(residualPool, x)
	}
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	x = b.Dense(x, 10)
	return b.Finish(b.Softmax(x))
}

// TestDepthwisePlannedExecutionMatchesReference is the depthwise/grouped
// property test: for random MobileNet-shaped graphs under fp32 and int8,
// serial and pooled execution, the planned arena-reusing session must be
// bit-identical to the sequential fresh-buffer reference (the same invariant
// the dense property test pins), and the plan must stay alias-free.
func TestDepthwisePlannedExecutionMatchesReference(t *testing.T) {
	for id := 0; id < 6; id++ {
		for _, cfg := range planConfigs {
			g := randomMobileGraph(uint64(id)*9176 + 31)
			name := fmt.Sprintf("seed-%d/%s", id, cfg.name)
			m, err := Compile(g, skylake(), cfg.opts)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			if err := m.plan.validate(m.Graph, m.program); err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			in := tensor.New(tensor.NCHW(), 1, 3, 24, 24)
			in.FillRandom(uint64(id)+13, 1)
			in2 := tensor.New(tensor.NCHW(), in.Shape...)
			in2.FillRandom(uint64(id)+113, 1)

			want, err := referenceRun(m, in)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			want2, err := referenceRun(m, in2)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}

			s, err := m.NewSession()
			if err != nil {
				t.Fatalf("%s: session: %v", name, err)
			}
			ctx := context.Background()
			for pass := 0; pass < 3; pass++ {
				input, expect := in, want
				if pass == 1 {
					input, expect = in2, want2
				}
				got, err := s.Run(ctx, input)
				if err != nil {
					t.Fatalf("%s pass %d: %v", name, pass, err)
				}
				for oi := range expect {
					if msg := bitDiff(expect[oi], got[oi]); msg != "" {
						t.Fatalf("%s pass %d: output %d diverges from sequential reference: %s", name, pass, oi, msg)
					}
				}
			}
			m.Close()
		}
	}
}

// TestDepthwiseGlobalSearchAgreesWithBaseline checks the full pipeline on
// TinyMobileNet: global search (which must pick shared-block depthwise
// schedules) agrees with the unoptimized NCHW baseline within fp32 tolerance,
// and the searched plan round-trips through SavePlan/LoadPlan/CompileWithPlan.
func TestDepthwiseGlobalSearchAgreesWithBaseline(t *testing.T) {
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(3, 1)

	base, err := Compile(models.TinyMobileNet(2), skylake(), Options{Level: OptNone, Threads: 1, Backend: machine.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want, err := base.Run(in)
	if err != nil {
		t.Fatal(err)
	}

	m, err := Compile(models.TinyMobileNet(2), skylake(), Options{Level: OptGlobalSearch, Threads: 2, Backend: machine.BackendPool})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// The searched plan must schedule every depthwise conv with a shared
	// blocked pair — the kernel contract — and never winograd.
	dwConvs := 0
	for _, n := range m.Graph.Convs() {
		if !graph.ConvWorkload(n).Depthwise() {
			continue
		}
		dwConvs++
		if n.Sched.Layout.Kind != tensor.LayoutNCHWc {
			t.Fatalf("%v: depthwise conv not blocked: %v", n, n.Sched)
		}
		if n.Sched.ICBlock != n.Sched.OCBlock {
			t.Fatalf("%v: depthwise schedule blocks differ: %v", n, n.Sched)
		}
		if n.Sched.Algorithm == machine.AlgoWinograd {
			t.Fatalf("%v: winograd scheduled on a depthwise conv", n)
		}
	}
	if dwConvs != 3 {
		t.Fatalf("tiny-mobilenet has %d depthwise convs after compilation, want 3", dwConvs)
	}
	got, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want[0], got[0], 1e-4) {
		t.Fatalf("global-search output diverges from baseline by %g", tensor.MaxAbsDiff(want[0], got[0]))
	}

	// Plan round trip: save, load, re-apply to a fresh build, same outputs.
	var buf bytes.Buffer
	if err := m.SavePlan(&buf); err != nil {
		t.Fatal(err)
	}
	pf, err := LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := CompileWithPlan(models.TinyMobileNet(2), skylake(), pf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	got2, err := replayed.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(got[0], got2[0]); d != 0 {
		t.Fatalf("replayed plan diverges from searched module by %g", d)
	}
}
