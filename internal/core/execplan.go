package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// This file implements the compile-time execution plan: the paper's thesis —
// decide everything ahead of time — applied to the runtime itself. Where the
// previous Session arena allocated one buffer per graph node, the planner
// runs liveness analysis over the topological order and greedily assigns
// node outputs, padding scratch and winograd scratch to a small set of
// shared, size-classed arena slots. The plan also groups the program into
// dependency levels; slot lifetimes are level-granular, so the executor walks
// the levels in order, one node at a time, each kernel splitting its
// outermost loop across the whole pool (the paper's one parallel axis).

// PlanStats summarizes a compiled execution plan. It is the metadata the
// serving layer sizes pools from and the benchmarks report.
type PlanStats struct {
	// Values counts the buffers the program needs (node outputs plus kernel
	// scratch); Slots counts the shared arena slots they were packed into.
	Values int `json:"values"`
	Slots  int `json:"slots"`
	// ArenaBytes is one session's planned arena footprint; NaiveArenaBytes is
	// what a one-buffer-per-value arena would have allocated (the pre-planner
	// behavior), so NaiveArenaBytes/ArenaBytes is the planner's saving.
	ArenaBytes      int `json:"arena_bytes"`
	NaiveArenaBytes int `json:"naive_arena_bytes"`
	// Levels counts the dependency levels the executor walks in order.
	Levels int `json:"levels"`
	// InterOpLevels and HybridLevels are always zero: every level runs
	// intra-op. They remain only because the benchmark harness still reads
	// them; the next benchmark change removes them.
	InterOpLevels int `json:"inter_op_levels"`
	HybridLevels  int `json:"hybrid_levels"`
}

// planBuf is one planned buffer: an arena slot plus the concrete tensor
// geometry of the view a session materializes over it.
type planBuf struct {
	slot   int // -1: no planned buffer
	layout tensor.Layout
	dims   []int
	elems  int
}

func noBuf() planBuf { return planBuf{slot: -1} }

// planStep carries the planned buffers of one program node.
type planStep struct {
	out     planBuf
	pad     planBuf
	wino    planBuf
	scratch planBuf
	// concat is the operand-slice length for concat nodes (0 otherwise).
	concat int
}

// slotClass distinguishes how a slot's contents may be recycled.
type slotClass int

const (
	// slotGeneric slots hold buffers that every user fully overwrites before
	// reading (node outputs, winograd V scratch, transform intermediates).
	slotGeneric slotClass = iota
	// slotPad slots back the direct template's explicit-padding scratch:
	// the kernel writes only the interior and relies on the border staying
	// zero from allocation, so a pad slot is shared exclusively between pad
	// buffers of identical geometry (same padded dims and pad amounts —
	// identical interior, identical untouched border).
	slotPad
	// slotPinned slots hold graph outputs. They are never recycled: the
	// views Run returns must stay valid until the next run.
	slotPinned
)

type planSlot struct {
	elems int
	class slotClass
	// padKey identifies the exact pad geometry a slotPad slot serves.
	padKey string
}

// execPlan is the compiled execution plan: per-node buffer assignments over
// shared slots plus the dependency levels the executor walks in order.
type execPlan struct {
	steps []planStep
	slots []planSlot
	// levels holds program indices grouped by dependency depth.
	levels [][]int
	stats  PlanStats
}

// physicalDims converts a logical output shape plus its assigned physical
// layout into concrete buffer dimensions.
func physicalDims(shape graph.Shape, l tensor.Layout) []int {
	switch l.Kind {
	case tensor.LayoutNCHW, tensor.LayoutNHWC, tensor.LayoutNCHWc:
		as := tensor.ActivationShape{N: shape.Dims[0], C: shape.Dims[1], H: shape.Dims[2], W: shape.Dims[3]}
		return as.PhysicalShape(l)
	default:
		// Flat (and any rank-2) outputs store exactly their logical dims.
		return shape.Dims
	}
}

// stepBuffers derives the buffer requirements of one node from its compiled
// schedule — the same geometry the per-node arena used to allocate, now
// expressed as slot requests.
func stepBuffers(n *graph.Node) planStep {
	st := planStep{out: noBuf(), pad: noBuf(), wino: noBuf(), scratch: noBuf()}
	mk := func(layout tensor.Layout, dims []int) planBuf {
		elems := 1
		for _, d := range dims {
			elems *= d
		}
		return planBuf{layout: layout, dims: dims, elems: elems}
	}
	switch n.Op {
	case graph.OpInput, graph.OpDropout, graph.OpSSDHead:
		// Aliasing (input, dropout) or data-dependent (SSD head) outputs:
		// nothing to plan.
		return st
	case graph.OpConcat:
		st.concat = len(n.Inputs)
	case graph.OpConv2D:
		if n.Sched.Layout.Kind == tensor.LayoutNCHWc {
			in := n.Inputs[0]
			physIn := physicalDims(in.OutShape, in.OutLayout)
			if n.Sched.Algorithm == machine.AlgoWinograd {
				// Winograd pads implicitly in its data transform; its scratch
				// is the transform-domain buffer of its walk instead.
				st.wino = mk(tensor.Flat(), ops.WinogradScratchShape(physIn, n.Conv))
			} else if n.Conv.Depthwise(in.OutShape.Dims[1]) {
				// The depthwise template clips its windows at the border
				// and needs no pad scratch; exec picks it by this test.
			} else if pad := ops.PaddedShapeNCHWc(physIn, n.Conv); pad != nil {
				st.pad = mk(in.OutLayout, pad)
			}
		}
	case graph.OpLayoutTransform:
		if tensor.NeedsTransformScratch(n.Inputs[0].OutLayout, n.Transform) {
			st.scratch = mk(tensor.NCHW(), n.OutShape.Dims)
		}
	}
	st.out = mk(n.OutLayout, physicalDims(n.OutShape, n.OutLayout))
	return st
}

// slotPool is the planner's free-slot bookkeeping.
type slotPool struct {
	slots   []planSlot
	free    []int            // generic slots available for reuse
	freePad map[string][]int // pad slots available, by exact geometry
}

// alloc assigns a generic slot of at least elems elements: best-fit over the
// free list, else grow the largest free slot (growth is free — backing memory
// is allocated once per session, sized to the final slot capacity), else a
// fresh slot.
func (p *slotPool) alloc(elems int) int {
	best, bestAt := -1, -1
	largest, largestAt := -1, -1
	for at, id := range p.free {
		sz := p.slots[id].elems
		if sz >= elems && (best == -1 || sz < p.slots[best].elems) {
			best, bestAt = id, at
		}
		if largest == -1 || sz > p.slots[largest].elems {
			largest, largestAt = id, at
		}
	}
	take := func(id, at int) int {
		p.free = append(p.free[:at], p.free[at+1:]...)
		return id
	}
	if best != -1 {
		return take(best, bestAt)
	}
	if largest != -1 {
		p.slots[largest].elems = elems
		return take(largest, largestAt)
	}
	p.slots = append(p.slots, planSlot{elems: elems, class: slotGeneric})
	return len(p.slots) - 1
}

// allocPad assigns a pad slot for the exact geometry key, reusing only slots
// that served the identical geometry (their zero border is still intact).
func (p *slotPool) allocPad(key string, elems int) int {
	if ids := p.freePad[key]; len(ids) > 0 {
		id := ids[len(ids)-1]
		p.freePad[key] = ids[:len(ids)-1]
		return id
	}
	p.slots = append(p.slots, planSlot{elems: elems, class: slotPad, padKey: key})
	return len(p.slots) - 1
}

// allocPinned creates a dedicated never-recycled slot for a graph output.
func (p *slotPool) allocPinned(elems int) int {
	p.slots = append(p.slots, planSlot{elems: elems, class: slotPinned})
	return len(p.slots) - 1
}

func (p *slotPool) release(id int) {
	switch p.slots[id].class {
	case slotGeneric:
		p.free = append(p.free, id)
	case slotPad:
		p.freePad[p.slots[id].padKey] = append(p.freePad[p.slots[id].padKey], id)
	}
	// Pinned slots are never released.
}

// buildExecPlan compiles the execution plan for a finalized module: liveness
// intervals at level granularity and greedy shared-slot assignment.
func buildExecPlan(g *graph.Graph, program []*graph.Node) *execPlan {
	lv := graph.AnalyzeLiveness(g, program)
	levels := lv.Levels()

	p := &execPlan{
		steps:  make([]planStep, len(program)),
		levels: levels,
	}

	// Value lifetimes at level granularity: a value defined at level d and
	// last read at level L is considered live for every level in [d, L], so
	// nothing that a level reads or writes is recycled until the whole level
	// has completed. The executor must therefore walk the levels in order.
	lastUseLevel := make([]int, len(program))
	for i := range program {
		lastUseLevel[i] = lv.Depth[lv.LastUse[i]]
		if lv.Pinned[i] {
			lastUseLevel[i] = len(levels) // beyond the last level: never freed
		}
	}

	pool := &slotPool{freePad: map[string][]int{}}
	releaseAt := make([][]int, len(levels)+1)
	naive := 0

	for li, level := range levels {
		for _, i := range level {
			n := program[i]
			st := stepBuffers(n)
			if st.out.dims != nil {
				p.stats.Values++
				naive += st.out.elems
				if lv.Pinned[i] {
					st.out.slot = pool.allocPinned(st.out.elems)
				} else {
					st.out.slot = pool.alloc(st.out.elems)
					releaseAt[lastUseLevel[i]] = append(releaseAt[lastUseLevel[i]], st.out.slot)
				}
			} else {
				st.out = noBuf()
			}
			if st.pad.dims != nil {
				p.stats.Values++
				naive += st.pad.elems
				key := fmt.Sprintf("%v/%d/%d", st.pad.dims, n.Conv.PadH, n.Conv.PadW)
				st.pad.slot = pool.allocPad(key, st.pad.elems)
				releaseAt[li] = append(releaseAt[li], st.pad.slot)
			} else {
				st.pad = noBuf()
			}
			for _, b := range []*planBuf{&st.wino, &st.scratch} {
				if b.dims != nil {
					p.stats.Values++
					naive += b.elems
					b.slot = pool.alloc(b.elems)
					releaseAt[li] = append(releaseAt[li], b.slot)
				} else {
					*b = noBuf()
				}
			}
			p.steps[i] = st
		}
		// Frees happen only after every allocation of the level: a buffer
		// allocated in level li can therefore never reuse a slot whose value
		// is still read (or written) within li — the no-in-place guarantee.
		for _, id := range releaseAt[li] {
			pool.release(id)
		}
	}

	p.slots = pool.slots
	p.stats.Slots = len(p.slots)
	for _, s := range p.slots {
		p.stats.ArenaBytes += 4 * s.elems
	}
	p.stats.NaiveArenaBytes = 4 * naive
	p.stats.Levels = len(levels)
	return p
}

// validate checks the plan's structural invariants against an independently
// recomputed liveness: no buffer exceeds its slot, pinned slots serve exactly
// one value, pad slots serve exactly one geometry, and — the load-bearing
// one — no two simultaneously-live buffers share a slot. The property tests
// call it on randomized graphs.
func (p *execPlan) validate(g *graph.Graph, program []*graph.Node) error {
	lv := graph.AnalyzeLiveness(g, program)
	levelOf := make([]int, len(p.steps))
	for li, level := range p.levels {
		for _, i := range level {
			levelOf[i] = li
		}
	}
	type window struct {
		step       int
		kind       string
		start, end int // inclusive level range the buffer is live for
	}
	bySlot := make(map[int][]window)
	for i, st := range p.steps {
		li := levelOf[i]
		if st.out.slot >= 0 {
			end := lv.Depth[lv.LastUse[i]]
			if lv.Pinned[i] {
				end = len(p.levels) // outlives the program
			}
			bySlot[st.out.slot] = append(bySlot[st.out.slot], window{i, "out", li, end})
		}
		for _, b := range []struct {
			buf  planBuf
			kind string
		}{{st.pad, "pad"}, {st.wino, "wino"}, {st.scratch, "scratch"}} {
			if b.buf.slot >= 0 {
				bySlot[b.buf.slot] = append(bySlot[b.buf.slot], window{i, b.kind, li, li})
			}
		}
	}
	for i, st := range p.steps {
		for _, b := range []planBuf{st.out, st.pad, st.wino, st.scratch} {
			if b.slot >= 0 && b.elems > p.slots[b.slot].elems {
				return fmt.Errorf("execplan: step %d buffer of %d elems exceeds slot %d capacity %d", i, b.elems, b.slot, p.slots[b.slot].elems)
			}
		}
	}
	for slot, ws := range bySlot {
		if p.slots[slot].class == slotPinned && len(ws) != 1 {
			return fmt.Errorf("execplan: pinned slot %d serves %d buffers", slot, len(ws))
		}
		for a := 0; a < len(ws); a++ {
			for b := a + 1; b < len(ws); b++ {
				if ws[a].start <= ws[b].end && ws[b].start <= ws[a].end {
					return fmt.Errorf("execplan: slot %d aliases live buffers: step %d %s (levels %d-%d) and step %d %s (levels %d-%d)",
						slot, ws[a].step, ws[a].kind, ws[a].start, ws[a].end, ws[b].step, ws[b].kind, ws[b].start, ws[b].end)
				}
			}
		}
	}
	return nil
}
