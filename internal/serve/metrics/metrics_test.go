package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramCumulativeBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 3, 9} { // 1 lands inclusively in le=1
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count %d", s.Count)
	}
	want := []uint64{2, 2, 3, 4}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (buckets %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if s.Sum != 13.5 {
		t.Fatalf("sum %g, want 13.5", s.Sum)
	}
	var nilH *Histogram
	nilH.Observe(1) // nil-safe
	if nilH.Snapshot().Count != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DurationBuckets)
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001 * float64(g+1))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count %d, want %d", s.Count, goroutines*per)
	}
	if s.Buckets[len(s.Buckets)-1] != s.Count {
		t.Fatalf("+Inf bucket %d != count %d", s.Buckets[len(s.Buckets)-1], s.Count)
	}
	// Sum is CAS-folded: no observation may be lost.
	var wantSum float64
	for g := 0; g < goroutines; g++ {
		wantSum += per * 0.001 * float64(g+1)
	}
	if diff := s.Sum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum %g, want %g", s.Sum, wantSum)
	}
}

func TestNilModelIsSafe(t *testing.T) {
	var m *Model
	m.ObserveRequest(200, time.Millisecond)
	m.ObserveQueueWait(time.Millisecond)
	m.ObserveExec(time.Millisecond)
	m.Inc(Discards)
	m.Inc(Panics)
	m.BreakerTransition(BreakerOpen)
	m.SetGaugeFunc(nil)
}

func TestLookupNeverCreates(t *testing.T) {
	r := NewRegistry()
	if got := r.Lookup("ghost"); got != nil {
		t.Fatal("Lookup minted a model")
	}
	m := r.Model("real")
	if m == nil {
		t.Fatal("Model returned nil")
	}
	if r.Lookup("real") != m {
		t.Fatal("Lookup found a different instance")
	}
	if r.Model("real") != m {
		t.Fatal("Model get-or-create returned a new instance")
	}
}

// exposition renders the registry the way /metrics would.
func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestCodeBucketsAndOther(t *testing.T) {
	r := NewRegistry()
	m := r.Model("m")
	m.ObserveRequest(200, time.Millisecond)
	m.ObserveRequest(418, time.Millisecond) // untracked -> "other"
	m.ObserveRequest(999, time.Millisecond)
	out := exposition(t, r)
	for _, want := range []string{
		`neocpu_requests_total{model="m",code="200"} 1`,
		`neocpu_requests_total{model="m",code="other"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `code="400"`) {
		t.Fatal("zero code series not elided")
	}
}

func TestBreakerAndHealthExposition(t *testing.T) {
	r := NewRegistry()
	m := r.Model("m")
	m.BreakerTransition(BreakerOpen)
	m.BreakerTransition(BreakerHalfOpen)
	m.BreakerTransition(BreakerClosed)
	m.BreakerTransition(BreakerOpen)
	r.SetHealthFunc(func() string { return "degraded" })
	out := exposition(t, r)
	for _, want := range []string{
		`neocpu_breaker_transitions_total{model="m",state="open"} 2`,
		`neocpu_breaker_transitions_total{model="m",state="half_open"} 1`,
		`neocpu_breaker_transitions_total{model="m",state="closed"} 1`,
		`neocpu_health_state{state="degraded"} 1`,
		`neocpu_health_state{state="ready"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeLifecycle(t *testing.T) {
	r := NewRegistry()
	m := r.Model("m")
	m.SetGaugeFunc(func() Gauges {
		return Gauges{QueueDepth: 3, PoolSessions: 2, PoolInUse: 1, PoolMax: 4, ArenaBytes: 1024}
	})
	out := exposition(t, r)
	for _, want := range []string{
		`neocpu_queue_depth{model="m"} 3`,
		`neocpu_pool_sessions{model="m"} 2`,
		`neocpu_pool_in_use{model="m"} 1`,
		`neocpu_pool_max_sessions{model="m"} 4`,
		`neocpu_model_arena_bytes{model="m"} 1024`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Teardown clears the callback: the unloaded model stops exporting
	// gauges (counters survive for cross-load continuity).
	m.Inc(Discards)
	m.SetGaugeFunc(nil)
	out = exposition(t, r)
	if strings.Contains(out, `neocpu_model_arena_bytes{model="m"}`) {
		t.Fatalf("unloaded model still exports arena gauge:\n%s", out)
	}
	if !strings.Contains(out, `neocpu_session_discards_total{model="m"} 1`) {
		t.Fatalf("counters did not survive gauge teardown:\n%s", out)
	}
}

func TestEvictionAndUnknownCounters(t *testing.T) {
	r := NewRegistry()
	r.IncEviction()
	r.IncEviction()
	r.IncUnknown()
	out := exposition(t, r)
	for _, want := range []string{
		"neocpu_model_evictions_total 2",
		"neocpu_unknown_model_requests_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// extractModelLabel pulls the unescaped model label out of the first
// requests_total sample, round-tripping the writer's escaping.
func extractModelLabel(t *testing.T, out string) (string, bool) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `neocpu_requests_total{model="`) {
			continue
		}
		rest := line[len(`neocpu_requests_total{model="`):]
		var val strings.Builder
		for i := 0; i < len(rest); i++ {
			switch rest[i] {
			case '"':
				return val.String(), true
			case '\\':
				i++
				if i >= len(rest) {
					t.Fatalf("dangling escape in %q", line)
				}
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("bad escape \\%c in %q", rest[i], line)
				}
			case '\n':
				t.Fatalf("raw newline inside label value: %q", line)
			default:
				val.WriteByte(rest[i])
			}
		}
		t.Fatalf("unterminated label value in %q", line)
	}
	return "", false
}

// FuzzMetricsLabels: arbitrary model names — quotes, backslashes, newlines,
// invalid UTF-8 — must round-trip through the exposition's label escaping
// without panicking, truncating a line, or corrupting the name.
func FuzzMetricsLabels(f *testing.F) {
	f.Add("tiny-cnn")
	f.Add(`we"ird`)
	f.Add(`back\slash`)
	f.Add("new\nline")
	f.Add("")
	f.Add("ünïcode-✓")
	f.Add("\x00\xff")
	f.Add(strings.Repeat("x", 300))
	f.Fuzz(func(t *testing.T, name string) {
		r := NewRegistry()
		r.Model(name).ObserveRequest(200, time.Millisecond)
		out := exposition(t, r)
		if out != "" && !strings.HasSuffix(out, "\n") {
			t.Fatal("exposition does not end in a newline")
		}
		got, ok := extractModelLabel(t, out)
		if !ok {
			t.Fatalf("requests_total series missing for %q:\n%s", name, out)
		}
		if got != name {
			t.Fatalf("label round-trip: wrote %q, read back %q", name, got)
		}
	})
}
