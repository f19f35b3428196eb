package serve

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/serve/metrics"
	"repro/internal/tensor"
)

// testMetrics is a fresh metric set for a pool built outside a registry.
func testMetrics() *metrics.Model { return metrics.NewRegistry().Model("test") }

func testModule(t *testing.T) *core.Module {
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

func TestPoolGrowsLazilyAndReuses(t *testing.T) {
	p, err := NewSessionPool(testModule(t), 3, 1, testMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Size != 1 || st.Idle != 1 {
		t.Fatalf("fresh pool: %+v, want one warm idle session", st)
	}
	ctx := context.Background()
	a, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Acquire(ctx) // grows
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("pool handed out the same session twice")
	}
	if st := p.Stats(); st.Size != 2 {
		t.Fatalf("size %d after growth, want 2", st.Size)
	}
	p.Release(a)
	c, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("pool did not reuse the released session")
	}
	if st := p.Stats(); st.Size != 2 {
		t.Fatalf("reuse grew the pool to %d", st.Size)
	}
	if st := p.Stats(); st.ArenaBytesPerSession == 0 {
		t.Fatal("arena accounting reported 0")
	}
	p.Release(b)
	p.Release(c)
}

func TestPoolBlocksAtBound(t *testing.T) {
	p, err := NewSessionPool(testModule(t), 1, 1, testMetrics())
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exhausted pool: got %v, want DeadlineExceeded", err)
	}
	if st := p.Stats(); st.Waits == 0 {
		t.Fatal("blocked Acquire was not counted as a wait")
	}
	p.Release(s)
	got, err := p.Acquire(context.Background())
	if err != nil || got != s {
		t.Fatalf("after release: %v, %v", got, err)
	}
	p.Release(got)
}

func TestPoolRejectsBadConfigurations(t *testing.T) {
	if _, err := NewSessionPool(testModule(t), 0, 1, testMetrics()); err == nil {
		t.Fatal("pool size 0 must fail")
	}
	if _, err := NewSessionPool(testModule(t), 1, 0, testMetrics()); err == nil {
		t.Fatal("queue depth 0 must fail")
	}
	pred, err := core.Compile(models.TinyCNN(1), machine.IntelSkylakeC5(), core.Options{
		Level: core.OptTransformElim, NoPrepack: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSessionPool(pred, 2, 1, testMetrics()); err == nil {
		t.Fatal("predict-only module must fail pool construction eagerly")
	}
}

func TestBatcherClosedRejects(t *testing.T) {
	p, err := NewSessionPool(testModule(t), 1, 4, testMetrics())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdmission("test", p, 0, nil)
	a.Close()
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	if _, _, err := a.DoTraced(context.Background(), in); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed admission front: got %v, want ErrClosed", err)
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	c := Config{}.withDefaults()
	if c.PoolSize != 0 || c.QueueDepth != 32 {
		t.Fatalf("defaults: %+v", c)
	}
	mod := testModule(t)
	for _, bad := range []Config{
		{PoolSize: -1},
		{QueueDepth: -3},
	} {
		if _, err := New(mod, "", bad); err == nil {
			t.Fatalf("config %+v must be rejected", bad)
		}
	}
}

// TestDefaultPoolSizeFromCores: the auto pool bound divides GOMAXPROCS among
// the module's kernel threads — one session per core at one thread, one
// session once a module is as wide as the process — and a server at
// defaults reports it.
func TestDefaultPoolSizeFromCores(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ threads, want int }{
		{1, procs},
		{procs, 1},
		{procs + 1, 1},
	} {
		mod, err := core.Compile(models.TinyCNN(1), machine.IntelSkylakeC5(), core.Options{
			Level: core.OptTransformElim, Threads: tc.threads,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := defaultPoolSize(mod); got != tc.want {
			t.Errorf("threads %d on GOMAXPROCS %d: pool bound %d, want %d", tc.threads, procs, got, tc.want)
		}
		mod.Close()
	}
	s, err := New(testModule(t), "", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Pool.MaxSize != procs {
		t.Fatalf("server at defaults over a 1-thread module: MaxSize = %d, want GOMAXPROCS %d", st.Pool.MaxSize, procs)
	}
}
