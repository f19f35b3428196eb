// Package search implements the global optimization-scheme search of
// Section 3.3.2: choosing one schedule per convolution so that the sum of
// convolution execution times and inter-convolution layout-transformation
// times is minimized over the whole graph.
//
// The objective decomposes over the "conv dependency graph": one variable per
// convolution whose domain is its local-search candidate schemes, a unary
// cost (the convolution's own time plus any transforms against fixed-layout
// boundaries such as the graph input or Flatten), and pairwise costs on
// edges between convolutions whose layouts interact (producer→consumer
// chains, fused residuals, and concat/add layout ties). This is exactly the
// structure of the PBQP register-allocation formulation the paper reduces
// to; the package provides three solvers: exhaustive enumeration (testing
// only), the dynamic program of Algorithm 2 (exact, with a state budget),
// and the PBQP heuristic used when DP goes intractable (SSD).
package search

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// Var is one decision variable: a convolution and its candidate schemes.
type Var struct {
	Node *graph.Node
	// Cands are the per-(ic_bn, oc_bn)-pair best schedules from local
	// search, ascending by time.
	Cands []schedule.Result
	// Unary[j] is the cost of choosing candidate j independent of other
	// variables: the convolution's execution time plus transform costs
	// against fixed-layout boundaries.
	Unary []float64
}

// Edge is a pairwise cost between two variables: Cost[ja][jb] is added when
// A takes candidate ja and B takes jb.
type Edge struct {
	A, B int
	Cost [][]float64
}

// Problem is the extracted global-search instance.
type Problem struct {
	Vars  []*Var
	Edges []*Edge
	// adj[i] lists indexes into Edges touching variable i.
	adj [][]int
}

// NumStates returns the total candidate count across variables.
func (p *Problem) NumStates() int {
	n := 0
	for _, v := range p.Vars {
		n += len(v.Cands)
	}
	return n
}

// Objective evaluates a full assignment (candidate index per variable).
func (p *Problem) Objective(assign []int) float64 {
	total := 0.0
	for i, v := range p.Vars {
		total += v.Unary[assign[i]]
	}
	for _, e := range p.Edges {
		total += e.Cost[assign[e.A]][assign[e.B]]
	}
	return total
}

// Plan converts an assignment into a graph layout plan.
func (p *Problem) Plan(assign []int) graph.LayoutPlan {
	plan := graph.LayoutPlan{}
	for i, v := range p.Vars {
		plan[v.Node] = v.Cands[assign[i]].Sched
	}
	return plan
}

func (p *Problem) buildAdj() {
	p.adj = make([][]int, len(p.Vars))
	for ei, e := range p.Edges {
		p.adj[e.A] = append(p.adj[e.A], ei)
		p.adj[e.B] = append(p.adj[e.B], ei)
	}
}

// transformCost returns the cost of converting an activation of `elems`
// elements between two block factors; block 1 is physically identical to
// plain NCHW, so transforms touching it on both sides are free.
func transformCost(t *machine.Target, elems, fromBlock, toBlock, threads int, backend machine.ThreadBackend) float64 {
	if fromBlock == toBlock {
		return 0
	}
	if fromBlock <= 1 && toBlock <= 1 {
		return 0
	}
	return t.TransformTime(elems, threads, backend)
}

// BuildOptions configures problem extraction.
type BuildOptions struct {
	// MaxCands caps the per-conv candidate schemes entering the global
	// search (taken from the ascending local-search order). Zero means 10.
	MaxCands int
	// Eval scores schedules during local search; nil uses the cost model at
	// the configured Threads/Backend.
	Eval schedule.Evaluator
	// DB memoizes local searches; nil allocates a fresh database. Callers
	// sharing a DB across searches must use a consistent evaluator for it.
	DB *schedule.DB
	// Threads/Backend describe the execution configuration the plan is
	// optimized for; costs are evaluated at this width so the global
	// decision matches the deployment. Zero threads means 1.
	Threads int
	Backend machine.ThreadBackend
	// DisableWinograd drops Winograd candidates from every variable's
	// domain, restricting the algorithm dimension to the direct template,
	// for users who need bit-compatibility with direct convolution. The
	// filter is applied to the memoized local-search results, so a shared
	// schedule DB stays consistent across compilations that differ on this
	// flag.
	DisableWinograd bool
}

// relKind distinguishes the pairwise relations the executor realizes.
type relKind int

const (
	relChain    relKind = iota // producer output feeds consumer input
	relResidual                // producer output fused into consumer epilogue
	relTie                     // operands of one add/concat must agree
)

// BuildProblem extracts the global-search instance from an optimized graph
// (Optimize must have run; AlterOpLayout must NOT have run yet).
func BuildProblem(g *graph.Graph, t *machine.Target, opts BuildOptions) (*Problem, error) {
	maxCands := opts.MaxCands
	if maxCands <= 0 {
		maxCands = 10
	}
	threads := opts.Threads
	if threads <= 0 {
		threads = 1
	}
	backend := opts.Backend
	eval := opts.Eval
	if eval == nil {
		eval = func(wl machine.ConvWorkload, s machine.ConvSchedule) float64 {
			return t.ConvTime(wl, s, threads, backend, 1)
		}
	}
	db := opts.DB
	if db == nil {
		db = schedule.NewDB()
	}

	p := &Problem{}
	varIdx := map[*graph.Node]int{}
	for _, n := range g.Convs() {
		wl := graph.ConvWorkload(n)
		sorted := db.Search(t, wl, eval)
		if opts.DisableWinograd {
			kept := make([]schedule.Result, 0, len(sorted))
			for _, r := range sorted {
				if r.Sched.Algorithm != machine.AlgoWinograd {
					kept = append(kept, r)
				}
			}
			sorted = kept
		}
		all := schedule.BestByBlockPair(sorted)
		results := all
		if len(results) > maxCands {
			results = results[:maxCands:maxCands]
			// Keep the uniform-x scheme (the Section 3.2 fallback plan) in
			// every candidate list so the global optimum can never be worse
			// than the uniform plan.
			uic := largestDivisorAtMost(wl.InC, t.VectorLanes)
			uoc := largestDivisorAtMost(wl.OutC, t.VectorLanes)
			found := false
			for _, r := range results {
				if r.Sched.ICBlock == uic && r.Sched.OCBlock == uoc {
					found = true
					break
				}
			}
			if !found {
				for _, r := range all {
					if r.Sched.ICBlock == uic && r.Sched.OCBlock == uoc {
						results = append(results, r)
						break
					}
				}
			}
		}
		if len(results) == 0 {
			return nil, fmt.Errorf("search: no candidates for %v", n)
		}
		v := &Var{Node: n, Cands: results, Unary: make([]float64, len(results))}
		for j, r := range results {
			v.Unary[j] = r.Time
		}
		varIdx[n] = len(p.Vars)
		p.Vars = append(p.Vars, v)
	}

	// resolve returns the variable index whose oc_bn determines the layout
	// of node n's output, or -1 when n's output is pinned to the default
	// layout (graph input, global pooling, flatten, dense...). Walking
	// through an Add or Concat records tie relations between the operands.
	memo := map[*graph.Node]int{}
	edges := map[[3]int]*Edge{} // (a, b, kind) -> accumulated edge
	addRel := func(a, b int, kind relKind, cost func(sa, sb machine.ConvSchedule) float64) {
		if a < 0 || b < 0 || a == b {
			return
		}
		key := [3]int{a, b, int(kind)}
		e, ok := edges[key]
		if !ok {
			va, vb := p.Vars[a], p.Vars[b]
			m := make([][]float64, len(va.Cands))
			for i := range m {
				m[i] = make([]float64, len(vb.Cands))
			}
			e = &Edge{A: a, B: b, Cost: m}
			edges[key] = e
		}
		for i, ra := range p.Vars[a].Cands {
			for j, rb := range p.Vars[b].Cands {
				e.Cost[i][j] += cost(ra.Sched, rb.Sched)
			}
		}
	}

	var resolve func(n *graph.Node) int
	resolve = func(n *graph.Node) int {
		if idx, ok := memo[n]; ok {
			return idx
		}
		memo[n] = -1 // break cycles defensively; DAGs never recurse into self
		var idx int
		switch n.Op {
		case graph.OpConv2D:
			idx = varIdx[n]
		case graph.OpReLU, graph.OpDropout, graph.OpBatchNorm, graph.OpPool:
			idx = resolve(n.Inputs[0])
		case graph.OpAdd:
			r0 := resolve(n.Inputs[0])
			r1 := resolve(n.Inputs[1])
			elems := n.OutShape.Volume()
			// The executor converts the second operand to the first's
			// layout (Section 3.3.2).
			addRel(r0, r1, relTie, func(sa, sb machine.ConvSchedule) float64 {
				return transformCost(t, elems, block(sb, true), block(sa, true), threads, backend)
			})
			if r0 >= 0 {
				idx = r0
			} else {
				idx = r1
			}
		case graph.OpConcat:
			r0 := resolve(n.Inputs[0])
			for _, in := range n.Inputs[1:] {
				ri := resolve(in)
				elems := in.OutShape.Volume()
				addRel(r0, ri, relTie, func(sa, sb machine.ConvSchedule) float64 {
					return transformCost(t, elems, block(sb, true), block(sa, true), threads, backend)
				})
			}
			idx = r0
		default:
			// Input, GlobalAvgPool, Flatten, Dense, Softmax, SSDHead,
			// LayoutTransform: output pinned to a default layout.
			idx = -1
		}
		memo[n] = idx
		return idx
	}

	// Chain and residual relations, plus boundary unaries.
	for _, n := range g.Topo() {
		switch n.Op {
		case graph.OpConv2D:
			b := varIdx[n]
			src := resolve(n.Inputs[0])
			inElems := n.Inputs[0].OutShape.Volume()
			if src >= 0 {
				addRel(src, b, relChain, func(sa, sb machine.ConvSchedule) float64 {
					return transformCost(t, inElems, block(sa, true), block(sb, false), threads, backend)
				})
			} else {
				// Producer pinned to NCHW: pay the input packing transform
				// unless ic_bn is 1.
				v := p.Vars[b]
				for j, r := range v.Cands {
					v.Unary[j] += transformCost(t, inElems, 1, block(r.Sched, false), threads, backend)
				}
			}
			if n.FusedResidual != nil {
				rsrc := resolve(n.FusedResidual)
				outElems := n.OutShape.Volume()
				if rsrc >= 0 {
					addRel(rsrc, b, relResidual, func(sa, sb machine.ConvSchedule) float64 {
						return transformCost(t, outElems, block(sa, true), block(sb, true), threads, backend)
					})
				} else {
					v := p.Vars[b]
					for j, r := range v.Cands {
						v.Unary[j] += transformCost(t, outElems, 1, block(r.Sched, true), threads, backend)
					}
				}
			}
		case graph.OpFlatten, graph.OpSSDHead:
			// Layout-dependent: every input comes back to NCHW; the producing
			// conv pays unless its oc_bn is 1.
			for _, in := range n.Inputs {
				src := resolve(in)
				if src < 0 {
					continue
				}
				elems := in.OutShape.Volume()
				v := p.Vars[src]
				for j, r := range v.Cands {
					v.Unary[j] += transformCost(t, elems, block(r.Sched, true), 1, threads, backend)
				}
			}
		}
	}
	// Graph outputs in blocked layouts transform back to NCHW.
	for _, out := range g.Outputs {
		src := resolve(out)
		if src < 0 {
			continue
		}
		elems := out.OutShape.Volume()
		v := p.Vars[src]
		for j, r := range v.Cands {
			v.Unary[j] += transformCost(t, elems, block(r.Sched, true), 1, threads, backend)
		}
	}

	for _, e := range edges {
		p.Edges = append(p.Edges, e)
	}
	// Deterministic edge order (map iteration is randomized).
	sortEdges(p.Edges)
	p.buildAdj()
	return p, nil
}

// block returns the relevant channel-block factor of a schedule: the output
// block (oc_bn) when out is true, the input block (ic_bn) otherwise. Plain
// NCHW schedules report block 1 (physically identical to NCHW1c).
func block(s machine.ConvSchedule, out bool) int {
	if s.Layout.Kind != tensor.LayoutNCHWc {
		return 1
	}
	if out {
		return s.OCBlock
	}
	return s.ICBlock
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

func sortEdges(es []*Edge) {
	// Insertion sort by (A, B): edge counts are small.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0; j-- {
			a, b := es[j-1], es[j]
			if a.A < b.A || (a.A == b.A && a.B <= b.B) {
				break
			}
			es[j-1], es[j] = b, a
		}
	}
}
