package graph

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/tensor"
)

// LayoutPlan assigns every convolution node its optimization scheme — the
// layout (NCHW or NCHW[x]c) plus the blocking tuple (Section 3.3). Plans are
// produced by the search packages or by the uniform helpers below.
type LayoutPlan map[*Node]machine.ConvSchedule

// NCHWPlan schedules every convolution in the default layout (Table 3's
// baseline row).
func NCHWPlan(g *Graph) LayoutPlan {
	p := LayoutPlan{}
	for _, n := range g.Convs() {
		p[n] = machine.ConvSchedule{Layout: tensor.NCHW()}
	}
	return p
}

// UniformPlan schedules every convolution in NCHW[x]c with one shared split
// factor (Section 3.2: "we make x a constant number across all CONVs"),
// clamping the block to each workload's channel divisors. Grouped
// convolutions clamp to per-group divisors so blocks never straddle a group;
// depthwise convolutions share one block for input and output (lane v of a
// channel block maps straight to lane v).
func UniformPlan(g *Graph, x, regN int) LayoutPlan {
	p := LayoutPlan{}
	for _, n := range g.Convs() {
		wl := ConvWorkload(n)
		var icb, ocb int
		if wl.Depthwise() {
			icb = largestDivisorAtMost(wl.InC, x)
			ocb = icb
		} else {
			icb = largestDivisorAtMost(wl.InC/wl.GroupCount(), x)
			ocb = largestDivisorAtMost(wl.OutC/wl.GroupCount(), x)
		}
		p[n] = machine.ConvSchedule{
			Layout:  tensor.NCHWc(icb),
			ICBlock: icb, OCBlock: ocb,
			RegN: regN,
		}
	}
	return p
}

// largestDivisorAtMost returns the largest divisor of n that is <= limit.
func largestDivisorAtMost(n, limit int) int {
	if limit > n {
		limit = n
	}
	for d := limit; d >= 1; d-- {
		if n%d == 0 {
			return d
		}
	}
	return 1
}

// AlterOpLayout assigns physical layouts through the graph and inserts
// explicit LayoutTransform nodes exactly where required (Section 3.2,
// Figure 2).
//
// With eliminate=true (NeoCPU), the blocked layout produced by a CONV flows
// through layout-oblivious and layout-tolerant operators and into the next
// CONV; transforms appear only at the graph input, at layout-dependent
// operators, at block-factor mismatches between consecutive CONVs, and at
// graph outputs.
//
// With eliminate=false, each CONV behaves like a kernel-library call: it
// transforms its input from the default layout into NCHW[x]c and transforms
// the result back immediately (Table 3 row 2, the op-level-only optimization
// that MXNet/OpenVINO-style stacks perform inside the library).
func AlterOpLayout(g *Graph, plan LayoutPlan, eliminate bool) error {
	type edge struct {
		producer *Node
		to       tensor.Layout
	}
	cache := map[edge]*Node{}

	// ensure returns a node producing `from`'s value in layout `to`,
	// inserting (or reusing) a LayoutTransform.
	ensure := func(from *Node, to tensor.Layout) *Node {
		if from.OutLayout.Equal(to) || to.Kind == tensor.LayoutAny {
			return from
		}
		key := edge{from, to}
		if t, ok := cache[key]; ok {
			return t
		}
		t := &Node{
			Name: fmt.Sprintf("lt_%s_%v", from.Name, to), Op: OpLayoutTransform,
			Inputs: []*Node{from}, Transform: to,
			OutShape: from.OutShape, OutLayout: to,
		}
		g.AddNode(t)
		cache[key] = t
		return t
	}

	for _, n := range g.Topo() {
		if n.Op == OpLayoutTransform {
			continue // inserted by this pass; already annotated
		}
		switch n.Op {
		case OpInput:
			n.OutLayout = tensor.NCHW()

		case OpConv2D:
			sched, ok := plan[n]
			if !ok {
				return fmt.Errorf("graph %q: no scheme for %v", g.Name, n)
			}
			if sched.Algorithm == machine.AlgoWinograd {
				// The Winograd kernel exists only for the blocked layout and
				// only computes 3x3 stride-1 dense convolutions; a plan that
				// says otherwise is wrong and must fail at compile time, not
				// read garbage at inference.
				if sched.Layout.Kind != tensor.LayoutNCHWc {
					return fmt.Errorf("graph %q: %v: winograd schedules require the NCHW[x]c layout, got %v",
						g.Name, n, sched.Layout)
				}
				if !machine.WinogradSupported(n.Conv.KH, n.Conv.KW, n.Conv.StrideH, n.Conv.StrideW) {
					return fmt.Errorf("graph %q: %v: winograd requires a 3x3 stride-1 convolution, got %dx%d stride %dx%d",
						g.Name, n, n.Conv.KH, n.Conv.KW, n.Conv.StrideH, n.Conv.StrideW)
				}
				if n.Conv.GroupCount() > 1 {
					return fmt.Errorf("graph %q: %v: winograd schedules do not support grouped convolutions (%d groups)",
						g.Name, n, n.Conv.GroupCount())
				}
			}
			if sched.Layout.Kind == tensor.LayoutNCHWc {
				// Channel blocks must fit the workload's grouping (shared
				// block for depthwise, per-group divisors otherwise) — the
				// same predicate plan loading applies, so a hand-written or
				// deserialized plan fails at compile time, never in a kernel.
				if err := ConvWorkload(n).ValidateBlocks(sched); err != nil {
					return fmt.Errorf("graph %q: %v: %w", g.Name, n, err)
				}
			}
			n.Sched = sched
			switch sched.Layout.Kind {
			case tensor.LayoutNCHW:
				n.Inputs[0] = ensure(n.Inputs[0], sched.Layout)
				n.OutLayout = sched.Layout
			case tensor.LayoutNCHWc:
				inL := tensor.NCHWc(sched.ICBlock)
				outL := tensor.NCHWc(sched.OCBlock)
				if eliminate {
					n.Inputs[0] = ensure(n.Inputs[0], inL)
					n.OutLayout = outL
				} else {
					// Library-style: transform in from default, compute
					// blocked, transform back out. The conv node keeps its
					// blocked output layout; a post-transform hands NCHW to
					// every consumer.
					pre := ensure(ensure(n.Inputs[0], tensor.NCHW()), inL)
					n.Inputs[0] = pre
					n.OutLayout = outL
					if n.FusedResidual != nil {
						res := ensure(n.FusedResidual, outL)
						n.FusedResidual = res
						n.Inputs[1] = res
					}
					post := ensure(n, tensor.NCHW())
					// Rewire every consumer of the conv (and the graph
					// outputs) to read the transformed-back value.
					for _, m := range g.nodes {
						if m == post {
							continue
						}
						for i, in := range m.Inputs {
							if in == n {
								m.Inputs[i] = post
							}
						}
						if m.FusedResidual == n {
							m.FusedResidual = post
						}
					}
					for i, out := range g.Outputs {
						if out == n {
							g.Outputs[i] = post
						}
					}
					continue
				}
			default:
				return fmt.Errorf("graph %q: scheme layout %v unsupported", g.Name, sched.Layout)
			}
			if n.FusedResidual != nil {
				res := ensure(n.FusedResidual, n.OutLayout)
				n.FusedResidual = res
				n.Inputs[1] = res
			}

		case OpBatchNorm, OpPool, OpReLU, OpDropout:
			// Layout-tolerant (NCHW and NCHWc): keep whatever arrives.
			n.OutLayout = n.Inputs[0].OutLayout

		case OpGlobalAvgPool:
			// Tolerant on input; always emits NCHW (N,C,1,1).
			n.OutLayout = tensor.NCHW()

		case OpAdd:
			// Oblivious, but operands must agree: fix the first input's
			// layout and convert the other (Section 3.3.2).
			want := n.Inputs[0].OutLayout
			n.Inputs[1] = ensure(n.Inputs[1], want)
			n.OutLayout = want

		case OpConcat:
			want := n.Inputs[0].OutLayout
			if want.Kind == tensor.LayoutNCHWc {
				// Blocked concat needs every operand's channel count to be a
				// multiple of the block; otherwise fall back to NCHW.
				for _, in := range n.Inputs {
					if in.OutShape.C()%want.BlockC != 0 {
						want = tensor.NCHW()
						break
					}
				}
			}
			for i := range n.Inputs {
				n.Inputs[i] = ensure(n.Inputs[i], want)
			}
			n.OutLayout = want

		case OpFlatten, OpSSDHead:
			// Layout-dependent: require the default layout on every input.
			for i := range n.Inputs {
				n.Inputs[i] = ensure(n.Inputs[i], tensor.NCHW())
			}
			if n.Op == OpFlatten {
				n.OutLayout = tensor.Flat()
			} else {
				n.OutLayout = tensor.Flat()
			}

		case OpDense, OpSoftmax:
			// Flat-only operators; producers already emit flat tensors.
			n.OutLayout = tensor.Flat()

		default:
			return fmt.Errorf("graph %q: AlterOpLayout: unhandled op %v", g.Name, n.Op)
		}
	}

	// The network's outputs stay in the default layout (Figure 2).
	for i, out := range g.Outputs {
		if out.OutLayout.Kind == tensor.LayoutNCHWc {
			g.Outputs[i] = ensure(out, tensor.NCHW())
		}
	}
	return InferShapes(g)
}

// CountTransforms returns the number of LayoutTransform nodes reachable from
// the outputs.
func (g *Graph) CountTransforms() int {
	n := 0
	for _, node := range g.Topo() {
		if node.Op == OpLayoutTransform {
			n++
		}
	}
	return n
}
