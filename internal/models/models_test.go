package models

import (
	"testing"

	"repro/internal/graph"
)

func TestNamesAllRegistered(t *testing.T) {
	names := Names()
	if len(names) != 15 {
		t.Fatalf("model count = %d, want 15 (the paper evaluates 15 networks)", len(names))
	}
	for _, n := range names {
		if _, err := Get(n); err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
	}
	if _, err := Get("alexnet"); err == nil {
		t.Fatal("expected error for unregistered model")
	}
	if _, err := Get("mobilenet-v1"); err != nil {
		t.Fatalf("Get(%q): %v", "mobilenet-v1", err)
	}
}

func TestMobileNetV1Structure(t *testing.T) {
	g := MustBuild("mobilenet-v1", 1)
	// Stem + 13 blocks x (depthwise + pointwise) = 27 convolutions.
	if got := len(g.Convs()); got != 27 {
		t.Fatalf("mobilenet-v1: convs = %d, want 27", got)
	}
	depthwise := 0
	for _, n := range g.Convs() {
		if graph.ConvWorkload(n).Depthwise() {
			depthwise++
		}
	}
	if depthwise != 13 {
		t.Fatalf("mobilenet-v1: depthwise convs = %d, want 13", depthwise)
	}
	s := g.ComputeStats()
	// Reference ~4.2M parameters, ~1.1 GFLOPs (2 FLOPs per MAC).
	if s.Params < 3.8e6 || s.Params > 4.8e6 {
		t.Fatalf("mobilenet-v1 params = %d, want ~4.2M", s.Params)
	}
	if s.FLOPs < 1.0e9 || s.FLOPs > 1.3e9 {
		t.Fatalf("mobilenet-v1 FLOPs = %.3g, want ~1.1e9", s.FLOPs)
	}
	if err := graph.Optimize(g); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Topo() {
		if n.Op == graph.OpBatchNorm {
			t.Fatalf("unfolded batch norm %v survived (depthwise BN folding)", n)
		}
	}
}

func TestAllModelsBuildAndValidate(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := MustBuild(name, 42)
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			spec, _ := Get(name)
			in := g.Input.OutShape
			if in.Dims[1] != spec.InputC || in.Dims[2] != spec.InputH || in.Dims[3] != spec.InputW {
				t.Fatalf("input shape %v != spec %+v", in, spec)
			}
			// Classification nets end in (1, 1000) softmax; SSD in
			// detections.
			out := g.Outputs[0].OutShape
			if name == "ssd-resnet-50" {
				if len(out.Dims) != 3 || out.Dims[2] != 6 {
					t.Fatalf("ssd output shape %v", out)
				}
			} else if len(out.Dims) != 2 || out.Dims[1] != 1000 {
				t.Fatalf("classifier output shape %v", out)
			}
		})
	}
}

func TestConvCounts(t *testing.T) {
	// Convolution counts from the reference definitions.
	want := map[string]int{
		"resnet-18":  20, // 16 block convs + stem + 3 projections
		"resnet-34":  36,
		"resnet-50":  53,
		"resnet-101": 104,
		"resnet-152": 155,
		"vgg-11":     8,
		"vgg-13":     10,
		"vgg-16":     13,
		"vgg-19":     16,
		// DenseNet: 2 convs per dense layer + 3 transitions + stem.
		"densenet-121": 120,
		"densenet-161": 160,
		"densenet-169": 168,
		"densenet-201": 200,
	}
	for name, wantConvs := range want {
		g := MustBuild(name, 1)
		if got := len(g.Convs()); got != wantConvs {
			t.Errorf("%s: convs = %d, want %d", name, got, wantConvs)
		}
	}
	// Inception-v3: stem 5 + A(7)*3 + B(4) + C(10)*4 + D(6) + E(9)*2 = 94.
	g := MustBuild("inception-v3", 1)
	if got := len(g.Convs()); got != 94 {
		t.Errorf("inception-v3: convs = %d, want 94", got)
	}
}

func TestResNet50FLOPs(t *testing.T) {
	g := MustBuild("resnet-50", 1)
	if err := graph.InferShapes(g); err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	// Reference: ~4.1 GMACs = ~8.2 GFLOPs (+/- head and projection detail).
	if s.FLOPs < 7.5e9 || s.FLOPs > 9.0e9 {
		t.Fatalf("resnet-50 FLOPs = %.3g, want ~8.2e9", s.FLOPs)
	}
	// Reference parameter count ~25.5M.
	if s.Params < 23e6 || s.Params > 28e6 {
		t.Fatalf("resnet-50 params = %d, want ~25.5M", s.Params)
	}
}

func TestVGG16FLOPsAndParams(t *testing.T) {
	g := MustBuild("vgg-16", 1)
	s := g.ComputeStats()
	// Reference: ~15.5 GMACs = ~31 GFLOPs; ~138M params.
	if s.FLOPs < 29e9 || s.FLOPs > 32.5e9 {
		t.Fatalf("vgg-16 FLOPs = %.3g, want ~31e9", s.FLOPs)
	}
	if s.Params < 130e6 || s.Params > 145e6 {
		t.Fatalf("vgg-16 params = %d, want ~138M", s.Params)
	}
}

func TestDenseNet121Params(t *testing.T) {
	g := MustBuild("densenet-121", 1)
	s := g.ComputeStats()
	// Reference ~8M parameters.
	if s.Params < 6.5e6 || s.Params > 9.5e6 {
		t.Fatalf("densenet-121 params = %d, want ~8M", s.Params)
	}
}

func TestInceptionV3Params(t *testing.T) {
	g := MustBuild("inception-v3", 1)
	s := g.ComputeStats()
	// Reference ~23.8M parameters (without aux head).
	if s.Params < 21e6 || s.Params > 27e6 {
		t.Fatalf("inception-v3 params = %d, want ~24M", s.Params)
	}
}

func TestSSDStructure(t *testing.T) {
	g := MustBuild("ssd-resnet-50", 1)
	var head *graph.Node
	for _, n := range g.Topo() {
		if n.Op == graph.OpSSDHead {
			head = n
		}
	}
	if head == nil {
		t.Fatal("no SSD head")
	}
	if len(head.Inputs) != 12 {
		t.Fatalf("head inputs = %d, want 12 (6 scales x cls+loc)", len(head.Inputs))
	}
	// Anchor total: 64^2*4 + 32^2*6 + 16^2*6 + 8^2*6 + 4^2*6 + 2^2*4.
	wantAnchors := 64*64*4 + 32*32*6 + 16*16*6 + 8*8*6 + 4*4*6 + 2*2*4
	if head.OutShape.Dims[1] != wantAnchors {
		t.Fatalf("anchors = %d, want %d", head.OutShape.Dims[1], wantAnchors)
	}
	spec, _ := Get("ssd-resnet-50")
	if !spec.UsePBQP {
		t.Fatal("SSD must be marked for the PBQP approximation")
	}
}

func TestOptimizePassesOnAllModels(t *testing.T) {
	for _, name := range Names() {
		g := MustBuild(name, 7)
		pre := g.ComputeStats()
		if err := graph.Optimize(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		post := g.ComputeStats()
		if post.Convs != pre.Convs {
			t.Fatalf("%s: optimization changed conv count %d -> %d", name, pre.Convs, post.Convs)
		}
		if post.Nodes >= pre.Nodes {
			t.Fatalf("%s: optimization should shrink the graph (%d -> %d)", name, pre.Nodes, post.Nodes)
		}
		// No BatchNorm should survive in these post-activation models.
		for _, n := range g.Topo() {
			if n.Op == graph.OpBatchNorm {
				t.Fatalf("%s: unfolded batch norm %v survived", name, n)
			}
		}
	}
}

func TestDeterministicWeights(t *testing.T) {
	a := MustBuild("resnet-18", 5)
	b := MustBuild("resnet-18", 5)
	ca, cb := a.Convs(), b.Convs()
	for i := range ca {
		for j := range ca[i].Weight.Data {
			if ca[i].Weight.Data[j] != cb[i].Weight.Data[j] {
				t.Fatal("same seed must give identical weights")
			}
		}
	}
	c := MustBuild("resnet-18", 6)
	if c.Convs()[0].Weight.Data[0] == ca[0].Weight.Data[0] {
		t.Fatal("different seeds should give different weights")
	}
}

func TestTinyModels(t *testing.T) {
	for _, mk := range []func(uint64) *graph.Graph{TinyCNN, TinyResNet, TinyDenseNet, TinyVGG, TinyMobileNet} {
		g := mk(3)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := graph.Optimize(g); err != nil {
			t.Fatal(err)
		}
	}
}
