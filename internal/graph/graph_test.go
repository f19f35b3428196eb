package graph

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/tensor"
)

// tinyCNN builds input -> conv -> bn -> relu -> maxpool -> conv -> bn ->
// relu -> gap -> flatten -> dense -> softmax.
func tinyCNN() *Graph {
	b := NewBuilder("tiny", 1)
	x := b.Input(3, 32, 32)
	x = b.ConvBNReLU(x, 16, 3, 1, 1)
	x = b.MaxPool(x, 2, 2, 0)
	x = b.ConvBNReLU(x, 32, 3, 1, 1)
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	x = b.Dense(x, 10)
	x = b.Softmax(x)
	return b.Finish(x)
}

// tinyResNet builds one residual block with a downsample branch.
func tinyResNet() *Graph {
	b := NewBuilder("tinyres", 2)
	x := b.Input(8, 16, 16)
	stem := b.ConvBNReLU(x, 16, 3, 1, 1)
	br := b.ConvBNReLU(stem, 16, 3, 1, 1)
	br = b.BatchNorm(b.Conv(br, 16, 3, 1, 1))
	sum := b.Add(br, stem)
	out := b.ReLU(sum)
	out = b.GlobalAvgPool(out)
	out = b.Flatten(out)
	out = b.Dense(out, 10)
	return b.Finish(out)
}

func TestBuilderShapes(t *testing.T) {
	g := tinyCNN()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	out := g.Outputs[0]
	if !out.OutShape.Equal(Shape{Dims: []int{1, 10}}) {
		t.Fatalf("output shape = %v", out.OutShape)
	}
	// Find the pool node and check its shape.
	for _, n := range g.Nodes() {
		if n.Op == OpPool {
			if !n.OutShape.Equal(Shape{Dims: []int{1, 16, 16, 16}}) {
				t.Fatalf("pool shape = %v", n.OutShape)
			}
		}
	}
}

func TestTopoOrder(t *testing.T) {
	g := tinyResNet()
	pos := map[*Node]int{}
	for i, n := range g.Topo() {
		pos[n] = i
	}
	for _, n := range g.Topo() {
		for _, in := range n.Inputs {
			if pos[in] >= pos[n] {
				t.Fatalf("topo violation: %v before %v", n, in)
			}
		}
	}
}

func TestValidateCatchesMissingInput(t *testing.T) {
	g := NewGraph("broken")
	n := &Node{Op: OpReLU, Inputs: []*Node{{Op: OpInput}}}
	g.AddNode(n)
	g.Outputs = []*Node{n}
	if err := g.Validate(); err == nil {
		t.Fatal("expected validation error for non-member input and missing graph input")
	}
}

func TestConsumers(t *testing.T) {
	g := tinyResNet()
	cons := g.Consumers()
	// The stem's ReLU feeds both the branch conv and the add (pre-fusion).
	var stem *Node
	for _, n := range g.Topo() {
		if n.Op == OpReLU && len(cons[n]) == 2 {
			stem = n
		}
	}
	if stem == nil {
		t.Fatal("expected a node with two consumers (residual fork)")
	}
}

func TestSimplifyInferenceFoldsBNAndDropout(t *testing.T) {
	b := NewBuilder("d", 3)
	x := b.Input(4, 8, 8)
	x = b.Conv(x, 8, 3, 1, 1)
	x = b.BatchNorm(x)
	x = b.ReLU(x)
	x = b.Dropout(x)
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	g := b.Finish(b.Dense(x, 4))

	if err := SimplifyInference(g); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Topo() {
		if n.Op == OpDropout {
			t.Fatal("dropout must be removed")
		}
		if n.Op == OpBatchNorm {
			t.Fatal("batch norm after conv must be folded")
		}
		if n.IsConv() && n.Bias == nil {
			t.Fatal("folded conv must carry a bias")
		}
	}
}

func TestSimplifyKeepsBNWithoutConv(t *testing.T) {
	// BN directly on the input cannot fold.
	b := NewBuilder("d", 4)
	x := b.Input(4, 8, 8)
	x = b.BatchNorm(x)
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	g := b.Finish(b.Dense(x, 2))
	if err := SimplifyInference(g); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range g.Topo() {
		if n.Op == OpBatchNorm {
			found = true
		}
	}
	if !found {
		t.Fatal("BN without preceding conv must survive")
	}
}

func TestFuseOpsConvReLU(t *testing.T) {
	g := tinyCNN()
	if err := Optimize(g); err != nil {
		t.Fatal(err)
	}
	relus, convs := 0, 0
	for _, n := range g.Topo() {
		switch n.Op {
		case OpReLU:
			relus++
		case OpConv2D:
			convs++
			if !n.FusedReLU {
				t.Fatalf("conv %v should carry fused relu", n)
			}
		}
	}
	if relus != 0 {
		t.Fatalf("standalone relus remaining: %d", relus)
	}
	if convs != 2 {
		t.Fatalf("convs = %d, want 2", convs)
	}
}

func TestFuseOpsResidual(t *testing.T) {
	g := tinyResNet()
	if err := Optimize(g); err != nil {
		t.Fatal(err)
	}
	var fused *Node
	adds := 0
	for _, n := range g.Topo() {
		if n.Op == OpAdd {
			adds++
		}
		if n.IsConv() && n.FusedResidual != nil {
			fused = n
		}
	}
	if adds != 0 {
		t.Fatal("residual add must fuse into the branch conv")
	}
	if fused == nil {
		t.Fatal("no conv carries the fused residual")
	}
	if !fused.FusedReLU {
		t.Fatal("the post-add relu must fuse into the same conv")
	}
	if len(fused.Inputs) != 2 || fused.Inputs[1] != fused.FusedResidual {
		t.Fatal("residual must be the conv's second input")
	}
}

// TestFuseOpsDoubleConsumedConv: a convolution whose output feeds two
// readers must not absorb either of them — fusing would change the value the
// second reader sees. Regression test for the consumer-count check.
func TestFuseOpsDoubleConsumedConv(t *testing.T) {
	b := NewBuilder("dblcons", 3)
	x := b.Input(8, 16, 16)
	c := b.Conv(x, 16, 3, 1, 1)
	// c is read by the relu AND by the pool: neither may fuse into c.
	r := b.ReLU(c)
	p := b.MaxPool(c, 2, 2, 0)
	r = b.GlobalAvgPool(r)
	p = b.GlobalAvgPool(p)
	sum := b.Add(b.Flatten(r), b.Flatten(p))
	g := b.Finish(sum)
	if err := FuseOps(g); err != nil {
		t.Fatal(err)
	}
	conv := g.Convs()[0]
	if conv.FusedReLU || conv.FusedResidual != nil {
		t.Fatalf("double-consumed conv was fused: relu=%v residual=%v", conv.FusedReLU, conv.FusedResidual)
	}
	relus := 0
	for _, n := range g.Topo() {
		if n.Op == OpReLU {
			relus++
		}
	}
	if relus != 1 {
		t.Fatalf("standalone relu count = %d, want 1", relus)
	}
}

// TestFuseOpsResidualDoubleConsumed: an add whose conv operand is also read
// elsewhere must stay a standalone operator.
func TestFuseOpsResidualDoubleConsumed(t *testing.T) {
	b := NewBuilder("dblres", 3)
	x := b.Input(8, 16, 16)
	stem := b.ReLU(b.Conv(x, 16, 3, 1, 1))
	c := b.Conv(stem, 16, 3, 1, 1)
	sum := b.Add(c, stem)
	// Second reader of c: concat with the residual sum.
	cat := b.Concat(sum, c)
	out := b.GlobalAvgPool(cat)
	out = b.Flatten(out)
	g := b.Finish(b.Dense(out, 4))
	if err := FuseOps(g); err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, n := range g.Topo() {
		if n.Op == OpAdd {
			adds++
		}
		if n.IsConv() && n.FusedResidual != nil {
			t.Fatalf("conv %v absorbed the add despite a second reader of its output", n)
		}
	}
	if adds != 1 {
		t.Fatalf("adds = %d, want 1 (unfused)", adds)
	}
}

// TestFuseOpsKeepsExposedConv: a convolution that is itself a graph output
// has an invisible extra reader — the caller — so its relu must not fuse
// even though the consumer map shows exactly one consumer node.
func TestFuseOpsKeepsExposedConv(t *testing.T) {
	b := NewBuilder("exposed", 3)
	x := b.Input(8, 16, 16)
	c := b.Conv(x, 16, 3, 1, 1)
	r := b.ReLU(c)
	r = b.GlobalAvgPool(r)
	r = b.Flatten(r)
	g := b.Finish(b.Dense(r, 4), c)
	if err := FuseOps(g); err != nil {
		t.Fatal(err)
	}
	conv := g.Convs()[0]
	if conv.FusedReLU {
		t.Fatal("conv exposed as a graph output must keep its relu standalone: the caller observes the pre-activation value")
	}
}

func TestLivenessIntervalsAndLevels(t *testing.T) {
	g := tinyResNet()
	if err := Optimize(g); err != nil {
		t.Fatal(err)
	}
	order := g.Topo()
	lv := AnalyzeLiveness(g, order)
	// Every consumer edge must be inside the producer's live interval.
	for i, n := range order {
		for _, in := range n.Inputs {
			if lv.LastUse[lv.Index[in]] < i {
				t.Fatalf("%v reads %v after its last use", n, in)
			}
		}
		start, end := lv.Interval(i)
		if start != i || end < i {
			t.Fatalf("interval of %v = [%d,%d], def at %d", n, start, end, i)
		}
	}
	// Outputs are pinned to the end of the program.
	for _, o := range g.Outputs {
		oi := lv.Index[o]
		if !lv.Pinned[oi] || lv.LastUse[oi] != len(order)-1 {
			t.Fatalf("output %v not pinned (lastUse=%d)", o, lv.LastUse[oi])
		}
	}
	// Levels: each node's inputs live at strictly smaller depths, and the
	// level partition covers the program exactly once.
	seen := 0
	for d, level := range lv.Levels() {
		for _, i := range level {
			seen++
			if lv.Depth[i] != d {
				t.Fatalf("node %v at depth %d in level %d", order[i], lv.Depth[i], d)
			}
			for _, in := range order[i].Inputs {
				if lv.Depth[lv.Index[in]] >= d {
					t.Fatalf("%v depends on %v within or above its own level", order[i], in)
				}
			}
		}
	}
	if seen != len(order) {
		t.Fatalf("levels cover %d of %d nodes", seen, len(order))
	}
}

func TestLivenessResolvesAliases(t *testing.T) {
	// input -> conv -> dropout -> relu: the relu's read of the dropout must
	// extend the conv's lifetime (dropout forwards the conv's buffer).
	b := NewBuilder("alias", 3)
	x := b.Input(4, 8, 8)
	c := b.Conv(x, 8, 3, 1, 1)
	d := b.Dropout(c)
	r := b.ReLU(d)
	r = b.GlobalAvgPool(r)
	r = b.Flatten(r)
	g := b.Finish(b.Dense(r, 2))
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	order := g.Topo()
	lv := AnalyzeLiveness(g, order)
	var conv, relu *Node
	for _, n := range order {
		switch n.Op {
		case OpConv2D:
			conv = n
		case OpReLU:
			relu = n
		}
	}
	if lv.LastUse[lv.Index[conv]] < lv.Index[relu] {
		t.Fatalf("conv's last use %d precedes the relu at %d reading it through the dropout alias",
			lv.LastUse[lv.Index[conv]], lv.Index[relu])
	}
	found := false
	for _, c := range lv.Consumers[conv] {
		if c == relu {
			found = true
		}
	}
	if !found {
		t.Fatal("alias-resolved consumers must attribute the relu's read to the conv")
	}
}

func TestUniformPlanClampsToDivisors(t *testing.T) {
	b := NewBuilder("d", 5)
	x := b.Input(3, 16, 16) // 3 input channels: block must divide 3
	x = b.Conv(x, 16, 3, 1, 1)
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	g := b.Finish(b.Dense(x, 2))
	plan := UniformPlan(g, 16, 8)
	conv := g.Convs()[0]
	s := plan[conv]
	if s.ICBlock != 3 {
		t.Fatalf("ic block = %d, want 3 (largest divisor of 3)", s.ICBlock)
	}
	if s.OCBlock != 16 {
		t.Fatalf("oc block = %d, want 16", s.OCBlock)
	}
}

func TestAlterOpLayoutEliminationReducesTransforms(t *testing.T) {
	mk := func() *Graph {
		g := tinyCNN()
		if err := Optimize(g); err != nil {
			t.Fatal(err)
		}
		return g
	}

	gElim := mk()
	if err := AlterOpLayout(gElim, UniformPlan(gElim, 8, 4), true); err != nil {
		t.Fatal(err)
	}
	gLib := mk()
	if err := AlterOpLayout(gLib, UniformPlan(gLib, 8, 4), false); err != nil {
		t.Fatal(err)
	}

	e, l := gElim.CountTransforms(), gLib.CountTransforms()
	if e >= l {
		t.Fatalf("elimination must reduce transforms: eliminated=%d library=%d", e, l)
	}
	// With elimination the blocked layout flows conv->pool->conv; only the
	// input transform remains (global pool emits NCHW).
	if e != 1 {
		t.Fatalf("eliminated graph transforms = %d, want 1", e)
	}
	// Library mode pays one in-transform per conv plus one out-transform per
	// conv (the first conv's in-transform comes straight from NCHW input).
	if l < 3 {
		t.Fatalf("library graph transforms = %d, want >= 3", l)
	}
}

func TestAlterOpLayoutMismatchedBlocksInsertTransform(t *testing.T) {
	b := NewBuilder("mm", 6)
	x := b.Input(8, 8, 8)
	c1 := b.Conv(x, 16, 3, 1, 1)
	c2 := b.Conv(c1, 16, 3, 1, 1)
	x = b.GlobalAvgPool(c2)
	x = b.Flatten(x)
	g := b.Finish(b.Dense(x, 2))

	plan := LayoutPlan{
		c1: {Layout: tensor.NCHWc(8), ICBlock: 8, OCBlock: 8, RegN: 4},
		c2: {Layout: tensor.NCHWc(4), ICBlock: 4, OCBlock: 4, RegN: 4},
	}
	if err := AlterOpLayout(g, plan, true); err != nil {
		t.Fatal(err)
	}
	// Input transform + rechunk between c1 (8c out) and c2 (4c in) = 2.
	if got := g.CountTransforms(); got != 2 {
		t.Fatalf("transforms = %d, want 2", got)
	}
	// Matching blocks need only the input transform.
	g2 := func() *Graph {
		b := NewBuilder("mm2", 6)
		x := b.Input(8, 8, 8)
		c1 := b.Conv(x, 16, 3, 1, 1)
		c2 := b.Conv(c1, 16, 3, 1, 1)
		x = b.GlobalAvgPool(c2)
		x = b.Flatten(x)
		return b.Finish(b.Dense(x, 2))
	}()
	if err := AlterOpLayout(g2, UniformPlan(g2, 8, 4), true); err != nil {
		t.Fatal(err)
	}
	if got := g2.CountTransforms(); got != 1 {
		t.Fatalf("uniform transforms = %d, want 1", got)
	}
}

func TestAlterOpLayoutResidualLayout(t *testing.T) {
	g := tinyResNet()
	if err := Optimize(g); err != nil {
		t.Fatal(err)
	}
	if err := AlterOpLayout(g, UniformPlan(g, 8, 4), true); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Topo() {
		if n.IsConv() && n.FusedResidual != nil {
			if !n.FusedResidual.OutLayout.Equal(n.OutLayout) {
				t.Fatalf("residual layout %v != conv output layout %v",
					n.FusedResidual.OutLayout, n.OutLayout)
			}
		}
	}
	// Graph output must be in a default (non-blocked) layout.
	out := g.Outputs[0]
	if out.OutLayout.IsBlocked() {
		t.Fatalf("graph output layout %v must not be blocked", out.OutLayout)
	}
}

func TestAlterOpLayoutNCHWPlanAddsNoTransforms(t *testing.T) {
	g := tinyCNN()
	if err := Optimize(g); err != nil {
		t.Fatal(err)
	}
	if err := AlterOpLayout(g, NCHWPlan(g), true); err != nil {
		t.Fatal(err)
	}
	if got := g.CountTransforms(); got != 0 {
		t.Fatalf("NCHW plan transforms = %d, want 0", got)
	}
}

func TestConvWorkloadFromNode(t *testing.T) {
	g := tinyCNN()
	conv := g.Convs()[0]
	wl := ConvWorkload(conv)
	want := machine.ConvWorkload{InC: 3, InH: 32, InW: 32, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if wl != want {
		t.Fatalf("workload = %+v, want %+v", wl, want)
	}
}

func TestComputeStats(t *testing.T) {
	g := tinyCNN()
	s := g.ComputeStats()
	if s.Convs != 2 {
		t.Fatalf("convs = %d", s.Convs)
	}
	if s.FLOPs <= 0 || s.Params <= 0 {
		t.Fatalf("stats empty: %+v", s)
	}
}

func TestClassify(t *testing.T) {
	if Classify(OpReLU) != LayoutOblivious || Classify(OpConcat) != LayoutOblivious {
		t.Fatal("relu/concat must be oblivious")
	}
	if Classify(OpConv2D) != LayoutTolerant || Classify(OpPool) != LayoutTolerant {
		t.Fatal("conv/pool must be tolerant")
	}
	if Classify(OpFlatten) != LayoutDependent || Classify(OpSSDHead) != LayoutDependent {
		t.Fatal("flatten/ssd must be dependent")
	}
}

func TestConcatBlockFallback(t *testing.T) {
	// Concat where one branch's channels are not divisible by the block
	// must fall back to NCHW inputs.
	b := NewBuilder("cc", 7)
	x := b.Input(8, 8, 8)
	c1 := b.Conv(x, 16, 3, 1, 1)
	c2 := b.Conv(x, 12, 3, 1, 1) // 12 % 8 != 0
	cat := b.Concat(c1, c2)
	g := b.Finish(b.Dense(b.Flatten(b.GlobalAvgPool(cat)), 2))

	plan := LayoutPlan{
		c1: {Layout: tensor.NCHWc(8), ICBlock: 8, OCBlock: 8, RegN: 4},
		c2: {Layout: tensor.NCHWc(4), ICBlock: 4, OCBlock: 4, RegN: 4},
	}
	if err := AlterOpLayout(g, plan, true); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Topo() {
		if n.Op == OpConcat {
			if n.OutLayout.Kind != tensor.LayoutNCHW {
				t.Fatalf("concat layout = %v, want NCHW fallback", n.OutLayout)
			}
		}
	}
}
