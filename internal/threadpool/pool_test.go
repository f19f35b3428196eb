package threadpool

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// runtimeUnderTest is the surface both threading runtimes share.
type runtimeUnderTest interface {
	ParallelRange(n int, body func(lo, hi int))
	Threads() int
	Close()
}

var runtimes = []struct {
	name string
	make func(threads int) runtimeUnderTest
}{
	{"pool", func(t int) runtimeUnderTest { return NewPool(t) }},
	{"omp", func(t int) runtimeUnderTest { return NewOMPPool(t) }},
}

type span struct{ lo, hi int }

// collect runs one region and returns the ranges its body calls received,
// sorted by lower bound.
func collect(r runtimeUnderTest, n int) []span {
	var mu sync.Mutex
	var got []span
	r.ParallelRange(n, func(lo, hi int) {
		mu.Lock()
		got = append(got, span{lo, hi})
		mu.Unlock()
	})
	sort.Slice(got, func(i, j int) bool { return got[i].lo < got[j].lo })
	return got
}

// TestRangeContract pins the one dispatch contract for both runtimes: the
// body calls of a region receive non-empty, ascending, non-overlapping ranges
// that cover [0, n) exactly, at most one per thread (so n < threads uses n
// threads), evenly sized.
func TestRangeContract(t *testing.T) {
	for _, rt := range runtimes {
		for _, threads := range []int{1, 2, 3, 4, 5, 8} {
			r := rt.make(threads)
			for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 64, 1000, 1001} {
				got := collect(r, n)
				if want := min(n, threads); len(got) != want {
					t.Fatalf("%s threads=%d n=%d: %d body calls, want %d: %v", rt.name, threads, n, len(got), want, got)
				}
				next := 0
				for _, s := range got {
					if s.lo != next || s.hi <= s.lo {
						t.Fatalf("%s threads=%d n=%d: ranges %v do not tile [0,%d) in ascending order", rt.name, threads, n, got, n)
					}
					if size, floor := s.hi-s.lo, n/len(got); size != floor && size != floor+1 {
						t.Fatalf("%s threads=%d n=%d: range %v is not an even share (%d or %d)", rt.name, threads, n, s, floor, floor+1)
					}
					next = s.hi
				}
				if next != n {
					t.Fatalf("%s threads=%d n=%d: ranges %v stop at %d", rt.name, threads, n, got, next)
				}
			}
			r.Close()
		}
	}
}

func TestPoolSingleThread(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if p.Threads() != 1 {
		t.Fatalf("Threads = %d, want 1", p.Threads())
	}
	if got := collect(p, 100); len(got) != 1 || got[0] != (span{0, 100}) {
		t.Fatalf("1-thread pool must run body(0, n) inline once, got %v", got)
	}
}

func TestPoolWidths(t *testing.T) {
	// Oversubscription beyond GOMAXPROCS is allowed (the workers are real
	// even on a small host), and non-positive widths clamp to 1.
	p := NewPool(8)
	defer p.Close()
	if p.Threads() != 8 {
		t.Fatalf("Threads = %d, want 8", p.Threads())
	}
	if q := NewPool(-3); q.Threads() != 1 {
		t.Fatalf("negative thread count should clamp to 1, got %d", q.Threads())
	}
}

func TestPoolReusableAcrossRegions(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var total atomic.Int64
	for region := 0; region < 200; region++ {
		p.ParallelRange(17, func(lo, hi int) { total.Add(int64(hi - lo)) })
	}
	if total.Load() != 200*17 {
		t.Fatalf("total = %d, want %d", total.Load(), 200*17)
	}
}

// TestPoolNestedSubmissionRunsInline is the regression test for the nested
// -submission hazard: a region submitted from inside another region's body
// (a kernel nested in a parallel loop, or any re-entrant caller) must
// degrade to the single inline call body(0, n) instead of deadlocking
// on the pool's own join, at any nesting depth.
func TestPoolNestedSubmissionRunsInline(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const outer, inner = 8, 16
	var innerCalls, badInner, depth3 atomic.Int64
	p.ParallelRange(outer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.ParallelRange(inner, func(lo, hi int) {
				innerCalls.Add(1)
				if lo != 0 || hi != inner {
					badInner.Add(1)
				}
				p.ParallelRange(3, func(lo, hi int) { depth3.Add(int64(hi - lo)) })
			})
		}
	})
	if innerCalls.Load() != outer || badInner.Load() != 0 {
		t.Fatalf("nested regions made %d body calls (%d not [0,%d)), want %d inline whole-range calls",
			innerCalls.Load(), badInner.Load(), inner, outer)
	}
	if depth3.Load() != outer*3 {
		t.Fatalf("triple nesting covered %d units, want %d", depth3.Load(), outer*3)
	}
}

// TestPoolConcurrentSubmitters: goroutines racing to submit regions must all
// make progress — one owns the workers, a loser runs body(0, n) inline — and
// every region covers its whole range.
func TestPoolConcurrentSubmitters(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const submitters, n, rounds = 4, 64, 50
	var total atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				calls, covered := 0, 0
				var mu sync.Mutex
				p.ParallelRange(n, func(lo, hi int) {
					mu.Lock()
					calls++
					covered += hi - lo
					mu.Unlock()
				})
				if covered != n || (calls != 1 && calls != p.Threads()) {
					t.Errorf("region covered %d of %d units in %d calls (want 1 inline or %d parallel)", covered, n, calls, p.Threads())
				}
				total.Add(int64(covered))
			}
		}()
	}
	wg.Wait()
	if total.Load() != submitters*n*rounds {
		t.Fatalf("concurrent submitters covered %d units, want %d", total.Load(), submitters*n*rounds)
	}
}

// TestPanicPropagation: a panic in any thread's range is re-raised on the
// submitting goroutine once the region has joined, and the runtime stays
// usable afterwards.
func TestPanicPropagation(t *testing.T) {
	for _, rt := range runtimes {
		r := rt.make(4)
		func() {
			defer func() {
				rec := recover()
				if rec == nil {
					t.Fatalf("%s: expected panic to propagate to the submitter", rt.name)
				}
				if !strings.Contains(rec.(string), "boom") {
					t.Fatalf("%s: panic message lost: %v", rt.name, rec)
				}
			}()
			r.ParallelRange(100, func(lo, hi int) {
				if lo <= 57 && 57 < hi {
					panic("boom")
				}
			})
		}()
		if got := collect(r, 50); len(got) != 4 {
			t.Fatalf("%s broken after panic: %v", rt.name, got)
		}
		r.Close()
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ParallelRange after Close must panic")
			}
		}()
		p.ParallelRange(4, func(lo, hi int) {})
	}()
}

// TestPoolCloseStopsSpinningWorkers closes a pool right after a region, while
// its workers are still polling for the next task: every worker must exit.
func TestPoolCloseStopsSpinningWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4)
	p.ParallelRange(4, func(lo, hi int) {})
	p.Close()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines after Close, %d before NewPool", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQuickPoolMatchesSerialSum(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	f := func(nRaw uint16) bool {
		n := int(nRaw % 4096)
		var parallel atomic.Int64
		p.ParallelRange(n, func(lo, hi int) {
			var part int64
			for i := lo; i < hi; i++ {
				part += int64(i * i)
			}
			parallel.Add(part)
		})
		var serial int64
		for i := 0; i < n; i++ {
			serial += int64(i * i)
		}
		return parallel.Load() == serial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOMPPoolThreads(t *testing.T) {
	if NewOMPPool(6).Threads() != 6 {
		t.Fatal("OMP thread count wrong")
	}
	if NewOMPPool(0).Threads() != 1 {
		t.Fatal("OMP must clamp to 1")
	}
}

func TestPoolConcurrentMutation(t *testing.T) {
	// Threads write disjoint slices: results must match serial execution
	// bit-for-bit.
	p := NewPool(runtime.GOMAXPROCS(0))
	defer p.Close()
	n := 1 << 16
	got := make([]float64, n)
	p.ParallelRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			got[i] = float64(i) * 1.5
		}
	})
	for i := range got {
		if got[i] != float64(i)*1.5 {
			t.Fatalf("got[%d] = %v", i, got[i])
		}
	}
}

// TestPoolPerIndexAdapter covers the per-index ParallelFor the benchmark
// harness still calls: every index exactly once.
func TestPoolPerIndexAdapter(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 5, 1001} {
		counts := make([]atomic.Int32, n)
		p.ParallelFor(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d executed %d times", n, i, got)
			}
		}
	}
}
