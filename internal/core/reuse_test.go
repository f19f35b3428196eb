package core

import (
	"context"
	"testing"

	"repro/internal/machine"
	"repro/internal/tensor"
)

// TestSessionReuseMatchesFreshSessions is the arena-reuse property test: for
// randomly shaped graphs and for both convolution algorithms, one session
// that runs N inputs in turn must be bit-identical to a fresh session per
// input (Module.Run): whatever an earlier run left in the shared arena slots
// must never change a later answer.
func TestSessionReuseMatchesFreshSessions(t *testing.T) {
	tgt := skylake()
	type variant struct {
		name string
		opts Options
	}
	variants := []variant{
		// Global search over random graphs: the searched plans mix direct
		// and winograd convolutions (seeds with 3x3 stride-1 convs).
		{"fp32-searched", Options{Level: OptGlobalSearch, Threads: 1}},
		{"fp32-direct-only", Options{Level: OptGlobalSearch, Threads: 1, DisableWinograd: true}},
	}
	const runs = 3
	sawWinograd := false
	for seed := uint64(1); seed <= 6; seed++ {
		inputs := make([]*tensor.Tensor, runs)
		for i := range inputs {
			inputs[i] = tensor.New(tensor.NCHW(), 1, 3, 32, 32)
			inputs[i].FillRandom(seed*100+uint64(i), 1)
		}
		for _, v := range variants {
			m, err := Compile(randomGraph(seed), tgt, v.opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			for _, n := range m.Graph.Convs() {
				if n.Sched.Algorithm == machine.AlgoWinograd {
					sawWinograd = true
				}
			}
			reused, err := m.NewSession()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			for i, in := range inputs {
				want, err := m.Run(in)
				if err != nil {
					t.Fatalf("seed %d %s input %d: %v", seed, v.name, i, err)
				}
				got, err := reused.Run(context.Background(), in)
				if err != nil {
					t.Fatalf("seed %d %s input %d: %v", seed, v.name, i, err)
				}
				if len(want) != len(got) {
					t.Fatalf("seed %d %s input %d: output arity mismatch", seed, v.name, i)
				}
				for j := range want {
					if !tensor.BitEqual(want[j], got[j]) {
						t.Fatalf("seed %d %s input %d output %d: reused session diverges from a fresh one by %g",
							seed, v.name, i, j, tensor.MaxAbsDiff(want[j], got[j]))
					}
				}
			}
			m.Close()
		}
	}
	if !sawWinograd {
		t.Fatal("no random seed produced a winograd schedule; the property test lost its winograd coverage")
	}
}

// TestSessionReuseMatchesFreshWinograd pins the winograd path explicitly
// (the random sweep above covers it opportunistically): a module the search
// provably scheduled winograd on must hold the same reuse property.
func TestSessionReuseMatchesFreshWinograd(t *testing.T) {
	m := winogradModule(t, 1)
	reused, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
		in.FillRandom(uint64(40+i), 1)
		want, err := m.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reused.Run(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.BitEqual(want[0], got[0]) {
			t.Fatalf("input %d: reused winograd session diverges from a fresh one", i)
		}
	}
}
