package graph

// This file implements liveness analysis over a fixed topological order: for
// every value (node output) it derives the last program point that reads it,
// resolving through aliasing nodes, and pins the graph outputs so their
// buffers are never recycled. The compile-time memory planner in
// internal/core consumes these intervals to assign node outputs to a small
// set of shared arena slots, with lifetimes rounded out to the level
// partition.

// ValueAlias returns the node whose value n forwards unchanged at execution
// time, or nil if n produces its own value. Dropout is identity at inference;
// OpInput forwards the caller-provided input tensor (it has no producer, so
// it also returns nil here — the input is external to the arena).
func ValueAlias(n *Node) *Node {
	if n.Op == OpDropout {
		return n.Inputs[0]
	}
	return nil
}

// Liveness holds per-value lifetime and dependency-depth metadata over one
// topological order of a graph.
type Liveness struct {
	// Order is the analyzed topological order; all position indices below
	// refer to it.
	Order []*Node
	// Index maps each node to its position in Order.
	Index map[*Node]int
	// LastUse[i] is the last position whose execution reads node i's value
	// (alias-resolved: a read through a forwarding node counts against the
	// underlying producer). A value with no readers has LastUse[i] == i.
	// Pinned values report the end of the program.
	LastUse []int
	// Pinned[i] marks values that must outlive the whole run: the graph
	// outputs (and the producers any output aliases). Their buffers are the
	// views an executor returns to the caller.
	Pinned []bool
	// Depth[i] is the longest-path distance from a source node: 0 for nodes
	// with no inputs, else 1 + max over input depths. Two nodes with equal
	// depth can never depend on each other, which makes the depth classes a
	// level-synchronous parallel schedule.
	Depth []int
	// Consumers is the alias-resolved reverse-edge map: for each node, the
	// nodes that read its value (directly or through forwarding nodes), with
	// multiplicity collapsed, in topological order.
	Consumers map[*Node][]*Node
}

// base resolves n through forwarding nodes to the node whose buffer actually
// holds the value.
func base(n *Node) *Node {
	for {
		a := ValueAlias(n)
		if a == nil {
			return n
		}
		n = a
	}
}

// AnalyzeLiveness computes value lifetimes and dependency depths over the
// given topological order (usually g.Topo()). Every node in order must be a
// member of g; inputs must precede consumers.
func AnalyzeLiveness(g *Graph, order []*Node) *Liveness {
	lv := &Liveness{
		Order:     order,
		Index:     make(map[*Node]int, len(order)),
		LastUse:   make([]int, len(order)),
		Pinned:    make([]bool, len(order)),
		Depth:     make([]int, len(order)),
		Consumers: make(map[*Node][]*Node, len(order)),
	}
	for i, n := range order {
		lv.Index[n] = i
	}
	for i, n := range order {
		// A value with no readers dies at its own definition point.
		lv.LastUse[i] = i
		d := 0
		for _, in := range n.Inputs {
			if id := lv.Depth[lv.Index[in]] + 1; id > d {
				d = id
			}
		}
		lv.Depth[i] = d
	}
	seen := make(map[[2]int]bool)
	for i, n := range order {
		for _, in := range n.Inputs {
			b := base(in)
			bi := lv.Index[b]
			if lv.LastUse[bi] < i {
				lv.LastUse[bi] = i
			}
			// The forwarding node itself is a (pointer-copy) read too: the
			// direct operand's lifetime must cover this position so the value
			// table entry it copies is still current.
			if di := lv.Index[in]; lv.LastUse[di] < i {
				lv.LastUse[di] = i
			}
			if !seen[[2]int{bi, i}] {
				seen[[2]int{bi, i}] = true
				lv.Consumers[b] = append(lv.Consumers[b], n)
			}
		}
	}
	for _, o := range g.Outputs {
		bi := lv.Index[base(o)]
		lv.Pinned[bi] = true
		lv.LastUse[bi] = len(order) - 1
		// The output node's own (possibly forwarding) value is read when the
		// executor collects results.
		if oi := lv.Index[o]; lv.LastUse[oi] < len(order)-1 {
			lv.LastUse[oi] = len(order) - 1
		}
	}
	return lv
}

// Interval returns the live range of node i's value as positions in Order:
// it is defined at start and last read at end (inclusive).
func (lv *Liveness) Interval(i int) (start, end int) {
	return i, lv.LastUse[i]
}

// Levels partitions the positions of Order into depth classes: Levels()[d]
// holds every position with Depth d, in topological order. All nodes within
// one level are mutually independent — a dependency strictly increases depth
// — so a level-synchronous executor may dispatch them concurrently.
func (lv *Liveness) Levels() [][]int {
	maxD := 0
	for _, d := range lv.Depth {
		if d > maxD {
			maxD = d
		}
	}
	levels := make([][]int, maxD+1)
	for i, d := range lv.Depth {
		levels[d] = append(levels[d], i)
	}
	return levels
}
