// Package models builds the 15 CNN computation graphs the paper evaluates
// (Section 4): ResNet-18/34/50/101/152, VGG-11/13/16/19,
// DenseNet-121/161/169/201, Inception-v3 and SSD with a ResNet-50 base —
// plus MobileNet-V1, the depthwise-separable extension beyond the paper's
// suite (registered, but outside Names() so the paper tables stay exactly
// the published 15). Weights are deterministic seeded synthetic tensors —
// the evaluation measures latency, not accuracy, so only shapes and
// structure matter. See README.md in this directory for the full model zoo,
// including the tiny-* smoke models, and the per-model support matrix.
//
// One structural simplification relative to the torchvision definitions:
// every normalization appears as conv → batch_norm → relu (post-activation),
// including DenseNet's internals, so that the SimplifyInference pass can
// fold every BatchNorm. This leaves FLOP counts and layer geometry intact,
// which is what the latency experiments depend on.
package models

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Spec describes one evaluated model.
type Spec struct {
	// Name is the registry key (e.g. "resnet-50").
	Name string
	// Display is the paper's table heading (e.g. "ResNet-50").
	Display string
	// InputC/H/W is the input geometry; batch is always 1.
	InputC, InputH, InputW int
	// UsePBQP marks models whose global search uses the approximation
	// algorithm ("only SSD was done approximately", Section 3.3.2).
	UsePBQP bool
	build   func(b *graph.Builder) *graph.Graph
}

var registry = map[string]*Spec{}

func register(s *Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("models: duplicate " + s.Name)
	}
	registry[s.Name] = s
}

// Names returns the model names in the paper's table order. The paper
// tables iterate exactly this list; extensions beyond the published suite
// (mobilenet-v1) are registered but not listed here.
func Names() []string {
	return []string{
		"resnet-18", "resnet-34", "resnet-50", "resnet-101", "resnet-152",
		"vgg-11", "vgg-13", "vgg-16", "vgg-19",
		"densenet-121", "densenet-161", "densenet-169", "densenet-201",
		"inception-v3", "ssd-resnet-50",
	}
}

// Get returns the spec for a model name.
func Get(name string) (*Spec, error) {
	s, ok := registry[name]
	if !ok {
		known := make([]string, 0, len(registry))
		for k := range registry {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("models: unknown model %q (known: %v)", name, known)
	}
	return s, nil
}

// Build constructs the named model's graph with the given parameter seed.
func Build(name string, seed uint64) (*graph.Graph, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(name, seed)
	return s.build(b), nil
}

// MustBuild is Build for known-good names.
func MustBuild(name string, seed uint64) *graph.Graph {
	g, err := Build(name, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// tinyBuilders maps the tiny-* smoke models onto their constructors. They
// live outside the Spec registry (the paper tables must stay the published
// suite) but serving layers still need to rebuild them by name.
var tinyBuilders = map[string]func(seed uint64) *graph.Graph{
	"tiny-cnn":       TinyCNN,
	"tiny-resnet":    TinyResNet,
	"tiny-densenet":  TinyDenseNet,
	"tiny-inception": TinyInception,
	"tiny-ssd":       TinySSD,
	"tiny-mobilenet": TinyMobileNet,
	"tiny-vgg":       TinyVGG,
}

// TinyNames returns the tiny smoke-model names in sorted order.
func TinyNames() []string {
	names := make([]string, 0, len(tinyBuilders))
	for k := range tinyBuilders {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// BuildAny constructs any known model by name — full-size registry entries
// or the tiny-* smoke models — with the given parameter seed.
func BuildAny(name string, seed uint64) (*graph.Graph, error) {
	if tb, ok := tinyBuilders[name]; ok {
		return tb(seed), nil
	}
	return Build(name, seed)
}

// ResolveGraph rebuilds any known model's structure by name: the default
// graph resolver for bundle loading (core.LoadBundle). Full-size models are
// built shape-only — the bundle supplies every runtime parameter, so
// materializing hundreds of megabytes of synthetic weights here would be
// waste — while the tiny smoke models build fully (they are a few KB).
func ResolveGraph(name string, seed uint64) (*graph.Graph, error) {
	if tb, ok := tinyBuilders[name]; ok {
		return tb(seed), nil
	}
	return BuildShapeOnly(name)
}

// BuildShapeOnly constructs the named model without materializing weight
// payloads. The graph supports every compiler pass and the latency
// predictor but cannot be executed; the simulation harnesses use it to keep
// hundreds of compilations cheap.
func BuildShapeOnly(name string) (*graph.Graph, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(name, 1)
	b.ShapeOnlyParams = true
	return s.build(b), nil
}
