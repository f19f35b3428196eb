package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/tensor"
)

// TestRunBatchMatchesSequentialRuns is the batching property test: for
// randomly shaped graphs and for both convolution algorithms, RunBatch over N inputs must be bit-identical to N sequential
// Session.Run calls: batching inputs must never change anyone's answer.
func TestRunBatchMatchesSequentialRuns(t *testing.T) {
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
	const batchN = 3
	sawWinograd := false
	for seed := uint64(1); seed <= 6; seed++ {
		inputs := make([]*tensor.Tensor, batchN)
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
			batchSess, err := m.NewSession()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			seqSess, err := m.NewSession()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			batch, err := batchSess.RunBatch(context.Background(), inputs)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			if len(batch) != batchN {
				t.Fatalf("seed %d %s: %d results for %d inputs", seed, v.name, len(batch), batchN)
			}
			for i, in := range inputs {
				want, err := seqSess.Run(context.Background(), in)
				if err != nil {
					t.Fatalf("seed %d %s input %d: %v", seed, v.name, i, err)
				}
				if len(want) != len(batch[i]) {
					t.Fatalf("seed %d %s input %d: output arity mismatch", seed, v.name, i)
				}
				for j := range want {
					if !tensor.BitEqual(want[j], batch[i][j]) {
						t.Fatalf("seed %d %s input %d output %d: RunBatch diverges from sequential Run by %g",
							seed, v.name, i, j, tensor.MaxAbsDiff(want[j], batch[i][j]))
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

// TestRunBatchMatchesSequentialWinograd pins the winograd path explicitly
// (the random sweep above covers it opportunistically): a module the search
// provably scheduled winograd on must hold the same batching property.
func TestRunBatchMatchesSequentialWinograd(t *testing.T) {
	m := winogradModule(t, 1)
	inputs := make([]*tensor.Tensor, 4)
	for i := range inputs {
		inputs[i] = tensor.New(tensor.NCHW(), 1, 3, 32, 32)
		inputs[i].FillRandom(uint64(40+i), 1)
	}
	batchSess, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	seqSess, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := batchSess.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		want, err := seqSess.Run(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.BitEqual(want[0], batch[i][0]) {
			t.Fatalf("input %d: winograd RunBatch diverges from sequential Run", i)
		}
	}
}

// stepCtx cancels after a fixed number of Err polls. The session polls
// ctx.Err once per graph node and RunBatch once more between items, so a
// budget of exactly one item's node count makes the cancellation land on
// the between-items check — deterministically mid-batch.
type stepCtx struct {
	context.Context
	remaining int
}

func (c *stepCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestRunBatchPartialCancellation: a cancellation landing between batch
// items must stop the batch AND hand back the completed prefix through
// BatchError instead of discarding finished work or running to completion.
func TestRunBatchPartialCancellation(t *testing.T) {
	m := sessionModule(t, 1)
	inputs := make([]*tensor.Tensor, 3)
	for i := range inputs {
		inputs[i] = tensor.New(tensor.NCHW(), 1, 3, 32, 32)
		inputs[i].FillRandom(uint64(70+i), 1)
	}
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Budget: RunBatch's pre-item check for item 0, then one poll per node
	// while item 0 executes. The next poll — the between-items check before
	// item 1 — cancels.
	ctx := &stepCtx{Context: context.Background(), remaining: 1 + len(m.program)}
	results, err := s.RunBatch(ctx, inputs)

	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("got %v (%T), want *BatchError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchError must unwrap to the ctx cause, got %v", err)
	}
	if be.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 (cancellation landed between items)", be.Completed)
	}
	if len(results) != 1 {
		t.Fatalf("got %d partial results, want 1", len(results))
	}
	want, err := m.Run(inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.BitEqual(want[0], results[0][0]) {
		t.Fatal("partial result diverges from an independent run of the same input")
	}

	// The session must be reusable after the aborted batch.
	full, err := s.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(inputs) {
		t.Fatalf("post-cancellation batch returned %d results", len(full))
	}
}

// TestRunBatchMidItemCancellation: a cancellation landing inside an item
// reports only the fully completed prefix.
func TestRunBatchMidItemCancellation(t *testing.T) {
	m := sessionModule(t, 1)
	inputs := []*tensor.Tensor{
		tensor.New(tensor.NCHW(), 1, 3, 32, 32),
		tensor.New(tensor.NCHW(), 1, 3, 32, 32),
	}
	for i, in := range inputs {
		in.FillRandom(uint64(80+i), 1)
	}
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Enough budget to finish item 0 and begin item 1, then cancel midway
	// through item 1's nodes.
	ctx := &stepCtx{Context: context.Background(), remaining: 1 + len(m.program) + 1 + len(m.program)/2}
	results, err := s.RunBatch(ctx, inputs)
	var be *BatchError
	if !errors.As(err, &be) || be.Completed != 1 || len(results) != 1 {
		t.Fatalf("got err=%v, %d results; want BatchError with Completed=1", err, len(results))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause not preserved: %v", err)
	}
}
