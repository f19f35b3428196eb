package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// referenceRun executes the module's program strictly sequentially with
// freshly allocated buffers for every node — no arena, no slot sharing, no
// inter-op. It is the executable specification the planned executor must
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

// planConfigs are the compilation configurations the property tests sweep:
// direct fp32, winograd-enabled global search, and int8 — each under both a
// serial lane and a pool wide enough to activate inter-op dispatch.
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
// simultaneously-live buffers to one slot, (2) planned (and inter-op) session
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
					if d := tensor.MaxAbsDiff(expect[oi], got[oi]); d != 0 {
						t.Fatalf("%s pass %d: output %d diverges from sequential reference by %g", name, pass, oi, d)
					}
				}
			}
			m.Close()
		}
	}
}

// TestPlanInterOpActivates pins the policy: branchy models must plan
// inter-op levels when compiled with a multi-thread pool, and must not when
// inter-op is disabled or the module is a single serial lane.
func TestPlanInterOpActivates(t *testing.T) {
	m, err := Compile(models.TinyInception(1), skylake(), Options{Level: OptTransformElim, Threads: 4, Backend: machine.BackendPool})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if st := m.PlanStats(); st.InterOpLevels == 0 || st.MaxWidth < 4 {
		t.Fatalf("tiny-inception must plan inter-op levels over its towers, got %+v", st)
	}

	seq, err := Compile(models.TinyInception(1), skylake(), Options{Level: OptTransformElim, Threads: 4, Backend: machine.BackendPool, DisableInterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	if st := seq.PlanStats(); st.InterOpLevels != 0 {
		t.Fatalf("DisableInterOp must pin every level sequential, got %+v", st)
	}

	serial, err := Compile(models.TinyInception(1), skylake(), Options{Level: OptTransformElim, Threads: 1, Backend: machine.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	if st := serial.PlanStats(); st.InterOpLevels != 0 {
		t.Fatalf("a single serial lane must not plan inter-op, got %+v", st)
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
