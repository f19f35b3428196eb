package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// TestKernelFamiliesBitIdenticalAcrossPolicies is the cross-product property
// of this package's threading story: for every kernel family (blocked
// direct, winograd, depthwise, plus a branchy graph) executed under a
// serial lane and pools of 4, 3 and 16 threads, the session output must be
// bit-identical to the strictly sequential fresh-buffer reference — and must
// stay bit-identical when the same compiled plan is re-dispatched over pools
// of width 1, 2, 3 and 5, whose per-thread ranges split every kernel's unit
// count raggedly. Range partitioning may only move work between threads,
// never change a bit. The subtest names keep the level policies the executor
// once chose between (intra, inter, hybrid); every level now runs intra-op.
// CI runs this package under -race, so the sweep doubles as the data-race
// check on the dispatch path.
func TestKernelFamiliesBitIdenticalAcrossPolicies(t *testing.T) {
	execConfigs := []struct {
		name    string
		threads int
	}{
		{"serial", 1},
		{"intra", 4},
		{"inter", 3},
		{"hybrid", 16},
	}
	// A graph is compiled once, so each subtest builds its own.
	families := []struct {
		name  string
		build func(seed uint64) *graph.Graph
		opts  Options
	}{
		{"direct", models.TinyResNet, Options{Level: OptTransformElim, DisableWinograd: true}},
		{"winograd", models.TinyResNet, Options{Level: OptGlobalSearch}},
		{"depthwise", models.TinyMobileNet, Options{Level: OptTransformElim}},
		{"branchy", models.TinyInception, Options{Level: OptTransformElim}},
	}
	for _, fam := range families {
		for _, cfg := range execConfigs {
			t.Run(fmt.Sprintf("%s/%s", fam.name, cfg.name), func(t *testing.T) {
				opts := fam.opts
				opts.Threads = cfg.threads
				m, err := Compile(fam.build(4), skylake(), opts)
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
						if msg := bitDiff(want[oi], got[oi]); msg != "" {
							t.Fatalf("%s: output %d diverges from sequential reference: %s", label, oi, msg)
						}
					}
				}
				check("planned width")
				// Keep the compiled plan and swap the pool under it: one
				// thread takes every range whole, and odd widths leave
				// uneven ranges.
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

// TestPolicyActivation pins the single parallel axis on a branchy model:
// whatever the pool width, tiny-inception plans no inter-op and no hybrid
// level — every level runs its nodes one at a time, each kernel given the
// whole pool.
func TestPolicyActivation(t *testing.T) {
	for _, threads := range []int{3, 4, 16} {
		m, err := Compile(models.TinyInception(1), skylake(), Options{Level: OptTransformElim, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		st := m.PlanStats()
		m.Close()
		if st.InterOpLevels != 0 || st.HybridLevels != 0 {
			t.Fatalf("%d threads: every level must run intra-op, got %+v", threads, st)
		}
	}
}
