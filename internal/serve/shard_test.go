package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/tensor"
)

// TestTryAcquireNeverBlocks: a request must never wait while a session is
// idle or the pool can still grow — Acquire on an already-cancelled context
// proves it, since any wait would return the context's error — and once the
// pool is exhausted only the queue bound's worth of callers may wait: the
// next one is refused at once.
func TestTryAcquireNeverBlocks(t *testing.T) {
	p, err := NewSessionPool(testModule(t), 2, 1, testMetrics())
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := p.Acquire(done) // the eagerly created warm session
	if err != nil {
		t.Fatalf("Acquire waited although a session was idle: %v", err)
	}
	b, err := p.Acquire(done) // under the bound: grows
	if err != nil || b == a {
		t.Fatalf("Acquire under the bound must grow a fresh session, got %p vs %p (%v)", b, a, err)
	}
	if st := p.Stats(); st.Size != 2 || st.Waits != 0 {
		t.Fatalf("pool after two acquisitions: %+v, want size 2 and no waits", st)
	}
	// Exhausted: this caller would wait, so it leaves through its context.
	if _, err := p.Acquire(done); !errors.Is(err, context.Canceled) {
		t.Fatalf("exhausted pool, cancelled caller: got %v, want context.Canceled", err)
	}

	// One waiter fills the queue of 1; the next caller is refused at once.
	got := make(chan *core.Session, 1)
	go func() {
		s, _ := p.Acquire(context.Background())
		got <- s
	}()
	for deadline := time.Now().Add(5 * time.Second); p.Waiting() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never blocked in Acquire")
		}
		time.Sleep(time.Millisecond)
	}
	late, cancelLate := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelLate()
	if _, err := p.Acquire(late); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: got %v, want ErrQueueFull", err)
	}
	p.Release(a)
	if s := <-got; s != a {
		t.Fatal("the waiter did not receive the released session")
	}
	if n := p.Waiting(); n != 0 {
		t.Fatalf("%d waiters left after the hand-off", n)
	}
	p.Release(a)
	p.Release(b)
}

// TestBatcherShardsAcrossIdleSessions: concurrent requests must run on
// distinct sessions at the same time, with outputs bit-identical to direct
// execution. Every run is held at the dispatch site until all of them have
// arrived there, which only completes if each holds its own session.
func TestBatcherShardsAcrossIdleSessions(t *testing.T) {
	defer faults.Reset()
	mod := testModule(t)
	const n = 4
	p, err := NewSessionPool(mod, n, 16, testMetrics())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdmission("test", p, 0, nil)
	defer a.Close()

	inputs := make([]*tensor.Tensor, n)
	want := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = tensor.New(tensor.NCHW(), 1, 3, 32, 32)
		inputs[i].FillRandom(uint64(i)+7, 1)
		outs, err := mod.Run(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outs[0]
	}

	var arrived atomic.Int64
	faults.Inject(faults.SiteBatcherDispatch, func(string) error {
		arrived.Add(1)
		for deadline := time.Now().Add(5 * time.Second); arrived.Load() < n; {
			if time.Now().After(deadline) {
				return errors.New("runs did not overlap: requests share sessions")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})

	got := make([][]*tensor.Tensor, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, errs[i] = a.DoTraced(context.Background(), inputs[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v (pool %+v)", i, errs[i], p.Stats())
		}
		if d := bitDiff(want[i], got[i][0]); d != 0 {
			t.Fatalf("request %d: %d output bits differ from a direct run", i, d)
		}
	}
	if st := p.Stats(); st.Size != n || st.Items != n || st.Waits != 0 {
		t.Fatalf("pool %+v, want %d sessions, %d items and no waits", st, n, n)
	}
}

// TestResultsOutliveTheirSession: Session.Run answers with views into the
// session's arena, so a result must be copied out before the session is
// released. On a one-session pool the second request reuses the arena, and
// the first request's outputs must not change.
func TestResultsOutliveTheirSession(t *testing.T) {
	mod := testModule(t)
	p, err := NewSessionPool(mod, 1, 1, testMetrics())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdmission("test", p, 0, nil)
	defer a.Close()
	var first []*tensor.Tensor
	for seed := uint64(1); seed <= 2; seed++ {
		in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
		in.FillRandom(seed, 1)
		outs, _, err := a.DoTraced(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = outs
		}
	}
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(1, 1)
	want, err := mod.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if d := bitDiff(want[0], first[0]); d != 0 {
		t.Fatalf("the first result changed when its session ran again: %d bits differ", d)
	}
}

// bitDiff counts the elements whose float32 bits differ (NaN-aware, unlike a
// max-abs-difference check).
func bitDiff(a, b *tensor.Tensor) int {
	if len(a.Data) != len(b.Data) {
		return len(a.Data) + len(b.Data)
	}
	n := 0
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			n++
		}
	}
	return n
}

// TestShardPanicIsolatesSingleLane: a panic inside one of several concurrent
// requests must fail that request alone and quarantine only its session —
// the others deliver results, and the pool replaces the discarded session so
// the admission front keeps serving. The pool's work counters must survive
// the discard: the panicked run counts, and nothing the discarded session
// ran before is lost.
func TestShardPanicIsolatesSingleLane(t *testing.T) {
	defer faults.Reset()
	mod := testModule(t)
	p, err := NewSessionPool(mod, 4, 16, testMetrics())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdmission("test", p, 0, nil)
	defer a.Close()

	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(3, 1)
	for i := 0; i < 2; i++ {
		if _, _, err := a.DoTraced(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	before := p.Stats()

	faults.Inject(faults.SiteSessionRun, faults.Times(1, faults.Panic("chaos: one run blown")))

	const n = 4
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = a.DoTraced(context.Background(), in)
		}(i)
	}
	wg.Wait()

	panicked, succeeded := 0, 0
	for i := 0; i < n; i++ {
		var pe *core.ExecPanicError
		switch {
		case errs[i] == nil:
			succeeded++
		case errors.As(errs[i], &pe):
			panicked++
		default:
			t.Fatalf("request %d: unexpected error %v", i, errs[i])
		}
	}
	if panicked != 1 || succeeded != n-1 {
		t.Fatalf("%d panicked and %d succeeded, want exactly 1 and %d (stats %+v)", panicked, succeeded, n-1, a.Stats())
	}
	after := p.Stats()
	if after.Discards != 1 {
		t.Fatalf("exactly the panicked request's session must be discarded, got %+v", after)
	}
	if st := a.Stats(); st.Panics != 1 {
		t.Fatalf("panic counter: %+v, want 1", st)
	}
	if after.Runs != before.Runs+n || after.Items != before.Items+n-1 || after.Busy < before.Busy {
		t.Fatalf("work counters lost the discarded session: before %+v, after %+v; want runs +%d (the panicked run included), items +%d, busy not lower",
			before, after, n, n-1)
	}

	// The pool regrows on demand: the admission front must still serve.
	outs, _, err := a.DoTraced(context.Background(), in)
	if err != nil {
		t.Fatalf("admission front did not recover after the discard: %v", err)
	}
	ref, err := mod.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if d := bitDiff(ref[0], outs[0]); d != 0 {
		t.Fatalf("post-recovery output: %d bits differ", d)
	}
}
