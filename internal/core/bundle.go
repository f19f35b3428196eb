package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// This file implements the compiled artifact bundle on top of
// internal/artifact: SaveBundle serializes everything a serving node needs
// to execute this module, and LoadBundle reconstructs an executable Module
// from a bundle without repeating schedule search or weight packing. The
// graph *structure* is rebuilt deterministically from the model name (node
// names are builder-assigned and stable), while every runtime parameter —
// packed fp32 weights, raw NCHW/NHWC and dense weights, folded biases,
// surviving batch-norm statistics — is installed from the bundle, never
// regenerated: a structural rebuild does not replay the original parameter
// RNG sequence.

// ErrBundleTarget is the typed cause for loading a bundle on a target whose
// schedule-validity signature (vector lanes, vector registers) differs from
// the one the bundle's schemes were chosen for. Callers recompile for the
// new target instead.
var ErrBundleTarget = errors.New("core: bundle target mismatch")

// GraphResolver rebuilds the structure of a named model for bundle loading.
// It must return a freshly built graph (the loader rewrites it in place)
// whose node names match the ones the bundle was saved against; a shape-only
// build is sufficient since every runtime parameter comes from the bundle.
type GraphResolver func(model string, seed uint64) (*graph.Graph, error)

// ParseLevel resolves an optimization level's canonical name (the
// OptLevel.String forms, e.g. "global-search").
func ParseLevel(s string) (OptLevel, error) {
	for _, l := range []OptLevel{OptNone, OptLayout, OptTransformElim, OptGlobalSearch} {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("core: unknown optimization level %q", s)
}

// SaveBundle serializes the compiled module as a self-contained artifact
// bundle: the plan, the IO metadata, the target signature, and every runtime
// parameter in its packed executable form. Prediction-only modules released
// their weights at compile time and cannot be bundled.
func (m *Module) SaveBundle(w io.Writer) error {
	if m.noPrepack {
		return fmt.Errorf("core: cannot bundle a prediction-only module (compiled with NoPrepack)")
	}
	g := m.Graph
	h := artifact.Header{
		Model: g.Name,
		Target: artifact.TargetSig{
			Name:        m.Target.Name,
			VectorLanes: m.Target.VectorLanes,
			NumVecRegs:  m.Target.NumVecRegs,
			Cores:       m.Target.Cores,
		},
		Level:      m.Level.String(),
		NoFusion:   m.disableFusion,
		NoBNFold:   m.disableBNFold,
		InputShape: append([]int(nil), g.Input.OutShape.Dims...),
		ArenaBytes: m.PlanStats().ArenaBytes,
	}
	for _, e := range m.planEntries() {
		h.Plan = append(h.Plan, artifact.SchedEntry(e))
	}
	for _, out := range g.Outputs {
		h.OutputShapes = append(h.OutputShapes, append([]int(nil), out.OutShape.Dims...))
	}

	var params []artifact.Param
	tensorParam := func(n *graph.Node, role string, t *tensor.Tensor) {
		params = append(params, artifact.Param{
			Entry: artifact.ParamEntry{
				Node: n.Name, Role: role,
				Layout: artifact.RefOf(t.Layout),
				Shape:  append([]int(nil), t.Shape...),
			},
			F32: t.Data,
		})
	}
	biasParam := func(n *graph.Node) {
		params = append(params, artifact.Param{
			Entry: artifact.ParamEntry{
				Node: n.Name, Role: artifact.RoleBias,
				Layout: artifact.RefOf(tensor.Flat()),
				Shape:  []int{len(n.Bias)},
			},
			F32: n.Bias,
		})
	}
	for _, n := range g.Topo() {
		switch n.Op {
		case graph.OpConv2D:
			if m.packed[n] != nil {
				tensorParam(n, artifact.RolePacked, m.packed[n])
			} else {
				// NCHW/NHWC-scheduled convolutions execute from the raw weight.
				tensorParam(n, artifact.RoleWeight, n.Weight)
			}
			if n.Bias != nil {
				biasParam(n)
			}
		case graph.OpDense:
			tensorParam(n, artifact.RoleWeight, n.Weight)
			if n.Bias != nil {
				biasParam(n)
			}
		case graph.OpBatchNorm:
			// A batch norm surviving the folding pass (multi-consumer conv, or
			// a NoBNFold pipeline) executes from its statistics at runtime.
			c := n.BN.Channels()
			data := make([]float32, 0, 4*c)
			data = append(data, n.BN.Gamma...)
			data = append(data, n.BN.Beta...)
			data = append(data, n.BN.Mean...)
			data = append(data, n.BN.Var...)
			params = append(params, artifact.Param{
				Entry: artifact.ParamEntry{
					Node: n.Name, Role: artifact.RoleBN,
					Layout: artifact.RefOf(tensor.Flat()),
					Shape:  []int{4, c},
					Eps:    n.BN.Eps,
				},
				F32: data,
			})
		}
	}
	return artifact.Write(w, h, params)
}

// LoadBundle reconstructs an executable Module from a bundle, skipping
// schedule search and weight packing entirely. The model's structure is
// rebuilt via resolve and rewritten with the exact pass pipeline recorded in
// the bundle; all runtime parameters are installed from the bundle payload.
//
// The honored fields of opts are the runtime choices a bundle does not pin:
// Threads and SharedPool, which pick the runtime as they do for Compile. Everything the schedules depend on
// (level, pipeline ablations) comes from the bundle.
//
// Malformed bundle content fails with artifact.ErrInvalidArtifact, and a
// quantized bundle saved by an earlier int8-capable build with
// artifact.ErrInt8Bundle (which wraps it); a target whose vector signature
// disagrees with the bundle fails with ErrBundleTarget.
func LoadBundle(r io.Reader, resolve GraphResolver, opts Options) (*Module, error) {
	b, err := artifact.Read(r)
	if err != nil {
		return nil, err
	}
	h := &b.Header
	t, err := machine.TargetByName(h.Target.Name)
	if err != nil {
		return nil, fmt.Errorf("%w: unknown target %q", ErrBundleTarget, h.Target.Name)
	}
	if t.VectorLanes != h.Target.VectorLanes || t.NumVecRegs != h.Target.NumVecRegs {
		return nil, fmt.Errorf("%w: bundle schedules assume %d lanes / %d vector registers for %q, this build resolves %d / %d",
			ErrBundleTarget, h.Target.VectorLanes, h.Target.NumVecRegs, h.Target.Name, t.VectorLanes, t.NumVecRegs)
	}
	level, err := ParseLevel(h.Level)
	if err != nil {
		return nil, fmt.Errorf("%w: level %q", artifact.ErrInvalidArtifact, h.Level)
	}
	if resolve == nil {
		return nil, fmt.Errorf("core: load bundle: nil graph resolver")
	}
	g, err := resolve(h.Model, h.Seed)
	if err != nil {
		// A bundle naming a model this process cannot rebuild is bad content
		// from the loader's point of view, so the rejection stays typed.
		return nil, fmt.Errorf("%w: resolve model %q: %v", artifact.ErrInvalidArtifact, h.Model, err)
	}

	// Replay the exact pass pipeline the bundle records, so the rebuilt node
	// set matches the one the parameters were saved against.
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	if err := graph.RemoveDropout(g); err != nil {
		return nil, fmt.Errorf("core: load bundle: simplify: %w", err)
	}
	if !h.NoBNFold {
		if err := graph.FoldBatchNorms(g); err != nil {
			return nil, fmt.Errorf("core: load bundle: fold batch norm: %w", err)
		}
	}
	if !h.NoFusion {
		if err := graph.FuseOps(g); err != nil {
			return nil, fmt.Errorf("core: load bundle: fuse: %w", err)
		}
	}
	pf := &PlanFile{Model: h.Model, Target: h.Target.Name, Level: h.Level}
	for _, e := range h.Plan {
		pf.Entries = append(pf.Entries, PlanEntry(e))
	}
	plan, err := pf.Apply(g)
	if err != nil {
		return nil, fmt.Errorf("%w: plan: %v", artifact.ErrInvalidArtifact, err)
	}
	// OptLayout is the one level that keeps per-CONV transforms (Table 3 row
	// 2); every other level eliminates them, exactly as Compile does.
	if err := graph.AlterOpLayout(g, plan, level != OptLayout); err != nil {
		return nil, fmt.Errorf("core: load bundle: alter op layout: %w", err)
	}
	if !equalDims(g.Input.OutShape.Dims, h.InputShape) {
		return nil, fmt.Errorf("%w: bundle input shape %v, rebuilt graph has %v", artifact.ErrInvalidArtifact, h.InputShape, g.Input.OutShape.Dims)
	}
	if len(g.Outputs) != len(h.OutputShapes) {
		return nil, fmt.Errorf("%w: bundle has %d outputs, rebuilt graph has %d", artifact.ErrInvalidArtifact, len(h.OutputShapes), len(g.Outputs))
	}
	for i, out := range g.Outputs {
		if !equalDims(out.OutShape.Dims, h.OutputShapes[i]) {
			return nil, fmt.Errorf("%w: bundle output %d shape %v, rebuilt graph has %v", artifact.ErrInvalidArtifact, i, h.OutputShapes[i], out.OutShape.Dims)
		}
	}

	lopts := Options{
		Level:         level,
		Threads:       opts.Threads,
		DisableFusion: h.NoFusion,
		DisableBNFold: h.NoBNFold,
		SharedPool:    opts.SharedPool,
	}
	m := newModule(g, t, level, nil, lopts)
	if err := m.installParams(b); err != nil {
		return nil, err
	}
	m.finishRuntime(lopts)
	// The recorded footprint is an upper bound: a rebuilt plan may need less
	// (a later planner can drop buffers), never more.
	if h.ArenaBytes != 0 && m.plan.stats.ArenaBytes > h.ArenaBytes {
		return nil, fmt.Errorf("%w: rebuilt execution plan needs a %d-byte arena, bundle recorded %d (compiler drift — recompile the bundle)",
			artifact.ErrInvalidArtifact, m.plan.stats.ArenaBytes, h.ArenaBytes)
	}
	return m, nil
}

// paramKey identifies one (node, role) parameter slot.
type paramKey struct{ node, role string }

// installParams applies every bundle parameter onto the rebuilt graph,
// validating each blob's geometry against the schedule and requiring the
// provided set to exactly match what the graph needs — a stale or truncated
// parameter table fails loudly rather than executing garbage.
func (m *Module) installParams(b *artifact.Bundle) error {
	byName := map[string]*graph.Node{}
	needed := map[paramKey]bool{}
	for _, n := range m.Graph.Topo() {
		byName[n.Name] = n
		switch n.Op {
		case graph.OpConv2D:
			if n.Sched.Layout.Kind == tensor.LayoutNCHWc {
				needed[paramKey{n.Name, artifact.RolePacked}] = true
			} else {
				needed[paramKey{n.Name, artifact.RoleWeight}] = true
			}
			if n.Bias != nil {
				needed[paramKey{n.Name, artifact.RoleBias}] = true
			}
		case graph.OpDense:
			needed[paramKey{n.Name, artifact.RoleWeight}] = true
			if n.Bias != nil {
				needed[paramKey{n.Name, artifact.RoleBias}] = true
			}
		case graph.OpBatchNorm:
			needed[paramKey{n.Name, artifact.RoleBN}] = true
		}
	}

	applied := map[paramKey]bool{}
	for i := range b.Params {
		p := &b.Params[i]
		e := p.Entry
		k := paramKey{e.Node, e.Role}
		if !needed[k] {
			return fmt.Errorf("%w: unexpected param %q/%s for model %q", artifact.ErrInvalidArtifact, e.Node, e.Role, m.Graph.Name)
		}
		if applied[k] {
			return fmt.Errorf("%w: duplicate param %q/%s", artifact.ErrInvalidArtifact, e.Node, e.Role)
		}
		applied[k] = true
		n := byName[e.Node]
		layout, err := e.Layout.Layout()
		if err != nil {
			return err
		}
		switch e.Role {
		case artifact.RolePacked:
			shape, wantLayout, err := packedGeometry(n)
			if err != nil {
				return err
			}
			if !layout.Equal(wantLayout) || !equalDims(e.Shape, shape) {
				return fmt.Errorf("%w: param %q/%s is %v %v, schedule needs %v %v", artifact.ErrInvalidArtifact, e.Node, e.Role, layout, e.Shape, wantLayout, shape)
			}
			m.packed[n] = &tensor.Tensor{Shape: e.Shape, Data: p.F32, Layout: layout}
		case artifact.RoleWeight:
			if n.Weight == nil || !equalDims(e.Shape, n.Weight.Shape) || layout.Kind != n.Weight.Layout.Kind {
				return fmt.Errorf("%w: param %q/%s is %v %v, graph declares %v", artifact.ErrInvalidArtifact, e.Node, e.Role, layout, e.Shape, n.Weight)
			}
			n.Weight = &tensor.Tensor{Shape: e.Shape, Data: p.F32, Layout: layout}
		case artifact.RoleBias:
			want := n.DenseOut
			if n.Op == graph.OpConv2D {
				want = n.Conv.OutC
			}
			if len(p.F32) != want {
				return fmt.Errorf("%w: param %q/%s has %d values, node has %d output channels", artifact.ErrInvalidArtifact, e.Node, e.Role, len(p.F32), want)
			}
			n.Bias = p.F32
		case artifact.RoleBN:
			c := n.BN.Channels()
			if !equalDims(e.Shape, []int{4, c}) {
				return fmt.Errorf("%w: param %q/%s shape %v, node has %d channels", artifact.ErrInvalidArtifact, e.Node, e.Role, e.Shape, c)
			}
			n.BN = ops.BatchNormParams{
				Gamma: p.F32[:c], Beta: p.F32[c : 2*c],
				Mean: p.F32[2*c : 3*c], Var: p.F32[3*c : 4*c],
				Eps: e.Eps,
			}
		}
	}
	for k := range needed {
		if !applied[k] {
			return fmt.Errorf("%w: bundle provides no %s param for node %q", artifact.ErrInvalidArtifact, k.role, k.node)
		}
	}
	return nil
}

// packedGeometry computes the packed-weight shape and layout a convolution's
// schedule demands, mirroring the compile-time packing exactly.
func packedGeometry(n *graph.Node) ([]int, tensor.Layout, error) {
	s := n.Sched
	w := n.Weight
	if w == nil || len(w.Shape) != 4 {
		return nil, tensor.Layout{}, fmt.Errorf("%w: %q has no rank-4 weight to pack against", artifact.ErrInvalidArtifact, n.Name)
	}
	o, i, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if s.Algorithm == machine.AlgoWinograd {
		if s.OCBlock <= 0 || s.ICBlock <= 0 || o%s.OCBlock != 0 || i%s.ICBlock != 0 {
			return nil, tensor.Layout{}, fmt.Errorf("%w: %q blocks (%d,%d) do not divide weight %v", artifact.ErrInvalidArtifact, n.Name, s.ICBlock, s.OCBlock, w.Shape)
		}
		return []int{16, o / s.OCBlock, i / s.ICBlock, s.ICBlock, s.OCBlock}, tensor.Flat(), nil
	}
	// Depthwise weights are logically (C, 1, KH, KW): their packing splits
	// only the output channels (see finalizeModule).
	wIC := s.ICBlock
	if graph.ConvWorkload(n).Depthwise() {
		wIC = 1
	}
	if s.OCBlock <= 0 || wIC <= 0 || o%s.OCBlock != 0 || i%wIC != 0 {
		return nil, tensor.Layout{}, fmt.Errorf("%w: %q blocks (%d,%d) do not divide weight %v", artifact.ErrInvalidArtifact, n.Name, wIC, s.OCBlock, w.Shape)
	}
	return []int{o / s.OCBlock, i / wIC, kh, kw, wIC, s.OCBlock}, tensor.OIHWio(wIC, s.OCBlock), nil
}

func equalDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
