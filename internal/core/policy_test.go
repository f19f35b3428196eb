package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// TestKernelFamiliesBitIdenticalAcrossPolicies is the cross-product property
// of this package's threading story: for every kernel family (blocked
// direct, winograd, depthwise, int8, plus a branchy graph for policy
// coverage) executed under a serial lane, a forced-intra pool, and pools
// sized to trigger inter-op and hybrid levels, the session output must be
// bit-identical to the strictly sequential fresh-buffer reference — and must
// stay bit-identical when the same compiled plan is re-dispatched over pools
// of width 1, 2, 3 and 5, whose per-thread ranges split every kernel's unit
// count raggedly. Range partitioning and policy choice may only move work
// between threads, never change a bit. CI runs this package under -race, so
// the sweep doubles as the data-race check on every dispatch path.
func TestKernelFamiliesBitIdenticalAcrossPolicies(t *testing.T) {
	execConfigs := []struct {
		name    string
		threads int
		backend machine.ThreadBackend
		disable bool
	}{
		{"serial", 1, machine.BackendSerial, false},
		{"intra", 4, machine.BackendPool, true},    // DisableInterOp: every level intra-op
		{"inter", 3, machine.BackendPool, false},   // narrow pool: balanced wide levels go inter-op
		{"hybrid", 16, machine.BackendPool, false}, // wide pool: multi-node levels go hybrid
	}
	families := []struct {
		name  string
		graph *graph.Graph
		opts  Options
	}{
		{"direct", models.TinyResNet(4), Options{Level: OptTransformElim, DisableWinograd: true}},
		{"winograd", models.TinyResNet(4), Options{Level: OptGlobalSearch}},
		{"depthwise", models.TinyMobileNet(4), Options{Level: OptTransformElim}},
		{"int8", models.TinyResNet(4), Options{Level: OptTransformElim, Int8: true}},
		{"branchy", models.TinyInception(4), Options{Level: OptTransformElim}},
	}
	for _, fam := range families {
		for _, cfg := range execConfigs {
			t.Run(fmt.Sprintf("%s/%s", fam.name, cfg.name), func(t *testing.T) {
				opts := fam.opts
				opts.Threads = cfg.threads
				opts.Backend = cfg.backend
				opts.DisableInterOp = cfg.disable
				m, err := Compile(fam.graph, skylake(), opts)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()

				in := tensor.New(tensor.NCHW(), 1, 3, m.Graph.Input.OutShape.Dims[2], m.Graph.Input.OutShape.Dims[3])
				in.FillRandom(9, 1)
				want, err := referenceRun(m, in)
				if err != nil {
					t.Fatal(err)
				}
				s, err := m.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				check := func(label string) {
					t.Helper()
					got, err := s.Run(context.Background(), in)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for oi := range want {
						if d := tensor.MaxAbsDiff(want[oi], got[oi]); d != 0 {
							t.Fatalf("%s: output %d diverges from sequential reference by %g", label, oi, d)
						}
					}
				}
				check("planned width")
				// Keep the compiled plan (levels, policies) and swap the pool
				// under it: one thread takes every range whole, and odd
				// widths leave uneven ranges.
				for _, width := range []int{1, 2, 3, 5} {
					if m.pool != nil {
						m.pool.Close()
					}
					m.pool = threadpool.NewPool(width)
					check(fmt.Sprintf("pool width %d", width))
				}
			})
		}
	}
}

// TestPolicyActivation pins the compile-time policy on a branchy model: a
// narrow pool must dispatch tiny-inception's balanced towers inter-op, a
// pool wider than any level must fall back to hybrid for the same levels,
// and DisableInterOp or a serial lane must plan neither.
func TestPolicyActivation(t *testing.T) {
	inter, err := Compile(models.TinyInception(1), skylake(), Options{Level: OptTransformElim, Threads: 3, Backend: machine.BackendPool})
	if err != nil {
		t.Fatal(err)
	}
	defer inter.Close()
	if st := inter.PlanStats(); st.InterOpLevels == 0 {
		t.Fatalf("narrow pool over balanced towers must plan inter-op levels, got %+v", st)
	}

	hybrid, err := Compile(models.TinyInception(1), skylake(), Options{Level: OptTransformElim, Threads: 16, Backend: machine.BackendPool})
	if err != nil {
		t.Fatal(err)
	}
	defer hybrid.Close()
	if st := hybrid.PlanStats(); st.HybridLevels == 0 {
		t.Fatalf("a pool wider than every level must plan hybrid levels, got %+v", st)
	}
	if st := hybrid.PlanStats(); st.InterOpLevels != 0 {
		t.Fatalf("no tiny-inception level holds 16 working nodes; inter-op must not activate, got %+v", st)
	}

	seq, err := Compile(models.TinyInception(1), skylake(), Options{Level: OptTransformElim, Threads: 16, Backend: machine.BackendPool, DisableInterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	if st := seq.PlanStats(); st.InterOpLevels != 0 || st.HybridLevels != 0 {
		t.Fatalf("DisableInterOp must pin every level intra-op, got %+v", st)
	}
}
