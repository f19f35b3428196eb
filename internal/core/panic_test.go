package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/tensor"
)

func panicTestModule(t *testing.T) *core.Module {
	t.Helper()
	m, err := core.Compile(models.TinyCNN(1), machine.IntelSkylakeC5(), core.Options{
		Level: core.OptTransformElim, Threads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func panicTestInput() *tensor.Tensor {
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(11, 1)
	return in
}

// TestRunRecoversPanicIntoTypedError: a kernel panic must surface as
// *core.ExecPanicError carrying the model name and stack — never escape and
// crash the caller — and must quarantine the session.
func TestRunRecoversPanicIntoTypedError(t *testing.T) {
	defer faults.Reset()
	m := panicTestModule(t)
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	faults.Inject(faults.SiteSessionRun, faults.OnLabel(m.Graph.Name, faults.Panic("synthetic kernel panic")))

	_, err = s.Run(context.Background(), panicTestInput())
	var pe *core.ExecPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *ExecPanicError", err)
	}
	if pe.Model != m.Graph.Name {
		t.Fatalf("panic error names model %q, want %q", pe.Model, m.Graph.Name)
	}
	if pe.Value != "synthetic kernel panic" {
		t.Fatalf("panic value %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
	if !s.Corrupted() {
		t.Fatal("session not quarantined after panic")
	}

	// A quarantined session refuses further runs even after the fault heals.
	faults.Reset()
	if _, err := s.Run(context.Background(), panicTestInput()); err == nil ||
		!strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("quarantined session ran: %v", err)
	}

	// A fresh session off the same module works: the module (weights, plan,
	// runtime) is read-only and survives the panic untouched.
	s2, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(context.Background(), panicTestInput()); err != nil {
		t.Fatalf("fresh session after panic: %v", err)
	}
}

// TestRunProfiledRecoversPanic: a profiled run crosses the same panic
// boundary as Session.Run, so a kernel panic returns *core.ExecPanicError
// instead of reaching the caller.
func TestRunProfiledRecoversPanic(t *testing.T) {
	defer faults.Reset()
	m := panicTestModule(t)
	faults.Inject(faults.SiteSessionRun, func(label string) error {
		panic("profiled kernel panic")
	})
	_, prof, err := m.RunProfiled(panicTestInput())
	var pe *core.ExecPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *ExecPanicError", err)
	}
	if prof != nil {
		t.Fatalf("a panicked run returned a profile: %+v", prof)
	}
}
