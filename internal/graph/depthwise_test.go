package graph

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/tensor"
)

func buildDWBlock(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("dw", 1)
	x := b.Input(3, 16, 16)
	x = b.ConvBNReLU(x, 16, 3, 1, 1)
	x = b.DepthwiseSeparable(x, 32, 1)
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	x = b.Dense(x, 10)
	return b.Finish(b.Softmax(x))
}

// TestDepthwiseFusion checks the depthwise+BN+ReLU pattern collapses like the
// dense one: BatchNorm folds into the depthwise weight/bias, ReLU fuses into
// the epilogue, and the depthwise conv keeps its group attribute.
func TestDepthwiseFusion(t *testing.T) {
	g := buildDWBlock(t)
	if err := Optimize(g); err != nil {
		t.Fatal(err)
	}
	var dw *Node
	for _, n := range g.Convs() {
		if ConvWorkload(n).Depthwise() {
			dw = n
		}
	}
	if dw == nil {
		t.Fatal("no depthwise conv survived optimization")
	}
	if dw.Bias == nil {
		t.Fatal("BatchNorm was not folded into the depthwise conv's bias")
	}
	if !dw.FusedReLU {
		t.Fatal("ReLU was not fused into the depthwise conv's epilogue")
	}
	if dw.Conv.GroupCount() != 16 {
		t.Fatalf("depthwise conv lost its groups: %d", dw.Conv.GroupCount())
	}
	for _, n := range g.Topo() {
		if n.Op == OpBatchNorm {
			t.Fatalf("standalone %v survived", n)
		}
	}
}

// TestDepthwiseLayoutFlow checks the transform-elimination pass keeps the
// blocked layout flowing straight through a depthwise-separable block: with
// matching block factors, the only transform in the program is the one
// packing the graph input.
func TestDepthwiseLayoutFlow(t *testing.T) {
	g := buildDWBlock(t)
	if err := Optimize(g); err != nil {
		t.Fatal(err)
	}
	plan := UniformPlan(g, 16, 4)
	for n, s := range plan {
		wl := ConvWorkload(n)
		if wl.Depthwise() && s.ICBlock != s.OCBlock {
			t.Fatalf("uniform plan split the depthwise blocks: %v", s)
		}
	}
	if err := AlterOpLayout(g, plan, true); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Topo() {
		if n.Op != OpLayoutTransform {
			continue
		}
		// Input packing (NCHW -> blocked) is the only legitimate transform:
		// the depthwise and pointwise convs must exchange blocked activations
		// directly.
		if n.Inputs[0].Op != OpInput {
			t.Fatalf("unexpected mid-graph transform %v after %v", n, n.Inputs[0])
		}
	}
	for _, n := range g.Convs() {
		if ConvWorkload(n).Depthwise() && n.OutLayout.Kind != tensor.LayoutNCHWc {
			t.Fatalf("depthwise conv fell out of the blocked layout: %v", n.OutLayout)
		}
	}
}

// TestDepthwiseWinogradRejected checks AlterOpLayout refuses a hand-written
// plan that schedules winograd on a grouped convolution.
func TestDepthwiseWinogradRejected(t *testing.T) {
	g := buildDWBlock(t)
	if err := Optimize(g); err != nil {
		t.Fatal(err)
	}
	plan := UniformPlan(g, 16, 4)
	for n := range plan {
		if ConvWorkload(n).Depthwise() {
			s := plan[n]
			s.Algorithm = machine.AlgoWinograd
			plan[n] = s
		}
	}
	if err := AlterOpLayout(g, plan, true); err == nil {
		t.Fatal("winograd on a depthwise conv must fail at compile time")
	}
}
