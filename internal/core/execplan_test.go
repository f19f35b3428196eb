package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// referenceRun executes the module's program strictly sequentially with
// freshly allocated buffers for every node — no arena, no slot sharing, no
// thread pool. It is the executable specification the planned executor must
// match bit for bit.
func referenceRun(m *Module, input *tensor.Tensor) ([]*tensor.Tensor, error) {
	vals := make([]*tensor.Tensor, len(m.program))
	for i, n := range m.program {
		out, err := m.exec(n, vals, input, ops.Serial, nil)
		if err != nil {
			return nil, err
		}
		vals[i] = out
	}
	outs := make([]*tensor.Tensor, len(m.Graph.Outputs))
	for i, o := range m.Graph.Outputs {
		outs[i] = vals[m.slot[o]]
	}
	return outs, nil
}

// bitDiff describes the first element where got's bits differ from want's,
// or returns "" when the two tensors are bit-identical. Unlike
// tensor.MaxAbsDiff it does not skip NaN.
func bitDiff(want, got *tensor.Tensor) string {
	if len(want.Data) != len(got.Data) {
		return fmt.Sprintf("%d elements, want %d", len(got.Data), len(want.Data))
	}
	for i, w := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
			return fmt.Sprintf("[%d] = %#x, want %#x", i, math.Float32bits(got.Data[i]), math.Float32bits(w))
		}
	}
	return ""
}

// planConfigs are the compilation configurations the property tests sweep:
// direct fp32, winograd-enabled global search, and int8 — under a serial lane
// and a 3-thread pool. The "-interop" rows are named for the level policy the
// executor once applied at that width; they now run every level intra-op.
var planConfigs = []struct {
	name string
	opts Options
}{
	{"direct-serial", Options{Level: OptTransformElim, DisableWinograd: true, Threads: 1, Backend: machine.BackendSerial}},
	{"direct-interop", Options{Level: OptTransformElim, DisableWinograd: true, Threads: 3, Backend: machine.BackendPool}},
	{"winograd-interop", Options{Level: OptGlobalSearch, Threads: 3, Backend: machine.BackendPool}},
	{"int8-interop", Options{Level: OptTransformElim, Int8: true, Threads: 3, Backend: machine.BackendPool}},
}

// TestPlannedExecutionMatchesReference is the end-to-end property: for random
// branchy graphs under every configuration, (1) the plan never assigns two
// simultaneously-live buffers to one slot, (2) planned (and pooled) session
// execution is bit-identical to the sequential fresh-buffer reference, (3)
// arena reuse across runs leaks nothing between inferences, and (4) the
// shared arena never exceeds the naive one-buffer-per-value footprint.
func TestPlannedExecutionMatchesReference(t *testing.T) {
	for id := 0; id < 6; id++ {
		for _, cfg := range planConfigs {
			// The builder-style fuzz generator from fuzz_test.go: conv/pool
			// chains with residual adds, concat fan-ins and dropout, so the
			// planner sees multi-consumer values, aliasing nodes and levels
			// wider than one.
			g := randomGraph(uint64(id)*1337 + 17)
			name := fmt.Sprintf("seed-%d/%s", id, cfg.name)
			m, err := Compile(g, skylake(), cfg.opts)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			if err := m.plan.validate(m.Graph, m.program); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			st := m.PlanStats()
			if st.ArenaBytes > st.NaiveArenaBytes {
				t.Fatalf("%s: planned arena %d exceeds naive %d", name, st.ArenaBytes, st.NaiveArenaBytes)
			}
			if st.Slots > st.Values {
				t.Fatalf("%s: more slots (%d) than values (%d)", name, st.Slots, st.Values)
			}

			in := tensor.New(tensor.NCHW(), 1, 3, m.Graph.Input.OutShape.Dims[2], m.Graph.Input.OutShape.Dims[3])
			in.FillRandom(uint64(id)+5, 1)
			in2 := tensor.New(tensor.NCHW(), in.Shape...)
			in2.FillRandom(uint64(id)+55, 1)

			want, err := referenceRun(m, in)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			want2, err := referenceRun(m, in2)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}

			s, err := m.NewSession()
			if err != nil {
				t.Fatalf("%s: session: %v", name, err)
			}
			ctx := context.Background()
			// Three passes over the reused arena: a slot-sharing bug that
			// leaves stale data (dirty pad borders, mis-shared outputs) shows
			// up as divergence on the second or third pass.
			for pass := 0; pass < 3; pass++ {
				input, expect := in, want
				if pass == 1 {
					input, expect = in2, want2
				}
				got, err := s.Run(ctx, input)
				if err != nil {
					t.Fatalf("%s pass %d: %v", name, pass, err)
				}
				for oi := range expect {
					if msg := bitDiff(expect[oi], got[oi]); msg != "" {
						t.Fatalf("%s pass %d: output %d diverges from sequential reference: %s", name, pass, oi, msg)
					}
				}
			}
			m.Close()
		}
	}
}

// TestPlanInterOpActivates pins that a branchy plan has levels wider than
// one node yet plans no inter-op or hybrid level at any pool width: the
// executor walks every level one node at a time, and a single serial lane
// plans the same.
func TestPlanInterOpActivates(t *testing.T) {
	for _, cfg := range []struct {
		threads int
		backend machine.ThreadBackend
	}{
		{1, machine.BackendSerial},
		{3, machine.BackendPool},
		{4, machine.BackendPool},
		{16, machine.BackendPool},
	} {
		m, err := Compile(models.TinyInception(1), skylake(), Options{Level: OptTransformElim, Threads: cfg.threads, Backend: cfg.backend})
		if err != nil {
			t.Fatal(err)
		}
		st, widest := m.PlanStats(), 0
		for _, level := range m.plan.levels {
			widest = max(widest, len(level))
		}
		m.Close()
		if widest < 4 {
			t.Fatalf("%d threads: tiny-inception's towers must share a level, widest has %d nodes", cfg.threads, widest)
		}
		if st.InterOpLevels != 0 || st.HybridLevels != 0 {
			t.Fatalf("%d threads: every level must run intra-op, got %+v", cfg.threads, st)
		}
	}
}

// TestPlanArenaSharing pins the headline saving: tiny-resnet's planned arena
// must be at least half the naive per-node arena (the acceptance bar for the
// planner), and model outputs must sit in dedicated pinned slots.
func TestPlanArenaSharing(t *testing.T) {
	m, err := Compile(models.TinyResNet(1), skylake(), Options{Level: OptTransformElim, Threads: 1, Backend: machine.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.PlanStats()
	if st.ArenaBytes*2 > st.NaiveArenaBytes {
		t.Fatalf("planned arena %d not ≥2x smaller than naive %d", st.ArenaBytes, st.NaiveArenaBytes)
	}
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if s.ArenaBytes() != st.ArenaBytes {
		t.Fatalf("session arena %d != planned %d", s.ArenaBytes(), st.ArenaBytes)
	}
	for _, o := range m.Graph.Outputs {
		st := m.plan.steps[m.slot[o]]
		if st.out.slot < 0 || m.plan.slots[st.out.slot].class != slotPinned {
			t.Fatalf("output %v not in a pinned slot", o)
		}
	}
	// The returned views must really be the pinned slots: running a second
	// inference on a DIFFERENT input must overwrite them (valid-until-next-run
	// semantics), not leave stale copies.
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(1, 1)
	outs, err := s.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	first := outs[0].Clone()
	in2 := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in2.FillRandom(99, 1)
	if _, err := s.Run(context.Background(), in2); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(first, outs[0]) == 0 {
		t.Fatal("second run did not write the pinned output slot")
	}
}
