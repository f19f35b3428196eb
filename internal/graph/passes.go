package graph

import (
	"fmt"

	"repro/internal/ops"
)

// This file implements the generic graph-level optimizations the paper
// inherits from the TVM stack (Section 3): inference simplification and
// operator fusion. The layout passes live in layout.go.

// SimplifyInference removes inference-time no-ops and folds BatchNorm into
// the preceding convolution:
//
//   - Dropout nodes become identity and are removed.
//   - A BatchNorm whose sole producer is a convolution consumed only by the
//     BatchNorm is folded into the convolution's weight and bias
//     (pre-computation at compile time); other BatchNorms are kept as
//     runtime scale/shift operators.
func SimplifyInference(g *Graph) error {
	if err := RemoveDropout(g); err != nil {
		return err
	}
	return FoldBatchNorms(g)
}

// RemoveDropout deletes inference-time identity Dropout nodes.
func RemoveDropout(g *Graph) error {
	dead := map[*Node]bool{}
	for _, n := range g.Topo() {
		if n.Op == OpDropout {
			g.replaceInput(n, n.Inputs[0])
			dead[n] = true
		}
	}
	g.removeNodes(dead)
	return InferShapes(g)
}

// FoldBatchNorms folds each BatchNorm whose sole producer is an
// exclusively-consumed convolution into that convolution's weight (scaled in
// place) and bias.
// Engine simulators skip this pass to model frameworks that execute
// BatchNorm as a standalone operator.
func FoldBatchNorms(g *Graph) error {
	dead := map[*Node]bool{}
	cons := g.Consumers()
	for _, n := range g.Topo() {
		if n.Op != OpBatchNorm {
			continue
		}
		conv := n.Inputs[0]
		if !conv.IsConv() || len(cons[conv]) != 1 {
			continue
		}
		conv.Bias = ops.FoldBatchNorm(conv.Weight, conv.Bias, n.BN)
		g.replaceInput(n, conv)
		dead[n] = true
	}
	g.removeNodes(dead)
	return InferShapes(g)
}

// FuseOps fuses memory-bound successors into convolution epilogues to raise
// arithmetic intensity (Section 2.2): conv→relu, conv→add→relu and
// conv→add patterns collapse into the convolution node. The residual operand
// becomes the convolution's second input.
//
// A fusion is only legal when the absorbed operator is the convolution's sole
// reader: the consumer count comes from a map recomputed at the top of every
// outer iteration, and each iteration performs at most one mutation before
// restarting (the `break` below), so the map is never consulted after an edge
// rewrite invalidated it. Graph outputs are an extra, invisible reader — the
// caller observes the pre-activation value — so an exposed convolution is
// never fused even when it has exactly one consumer node.
func FuseOps(g *Graph) error {
	changed := true
	for changed {
		changed = false
		cons := g.Consumers()
		exposed := map[*Node]bool{}
		for _, o := range g.Outputs {
			exposed[o] = true
		}
		fusible := func(c *Node) bool {
			return c.IsConv() && len(cons[c]) == 1 && !exposed[c]
		}
		dead := map[*Node]bool{}
		for _, n := range g.Topo() {
			switch n.Op {
			case OpAdd:
				// Fuse the add into whichever operand is a convolution whose
				// only reader is this add and which has no residual yet.
				var conv, other *Node
				for i, c := range []*Node{n.Inputs[0], n.Inputs[1]} {
					if fusible(c) && c.FusedResidual == nil && !c.FusedReLU {
						conv, other = c, n.Inputs[1-i]
						break
					}
				}
				if conv == nil || other == conv {
					continue
				}
				conv.FusedResidual = other
				conv.Inputs = append(conv.Inputs, other)
				g.replaceInput(n, conv)
				dead[n] = true
				changed = true
			case OpReLU:
				c := n.Inputs[0]
				if fusible(c) && !c.FusedReLU {
					c.FusedReLU = true
					g.replaceInput(n, c)
					dead[n] = true
					changed = true
				}
			}
			if changed {
				// One mutation per consumer-map computation: restart so the
				// next fusion decision sees fresh edges.
				break
			}
		}
		g.removeNodes(dead)
	}
	return InferShapes(g)
}

// Optimize runs the standard pre-layout pass pipeline.
func Optimize(g *Graph) error {
	if err := SimplifyInference(g); err != nil {
		return fmt.Errorf("simplify inference: %w", err)
	}
	if err := FuseOps(g); err != nil {
		return fmt.Errorf("fuse ops: %w", err)
	}
	return nil
}
