// Black-box contract tests for the /metrics endpoint: scripted traffic with
// known outcomes (successes, backpressure, deadline expiries, panics,
// unknown models), then the exposition is parsed with the strict test-only
// parser and every counter delta checked exactly against what the clients
// observed. /v2/stats must read the same counters, across a reload too, and
// a second scrape locks in counter monotonicity.
package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
)

// scrapeMetrics GETs /metrics and parses the body.
func scrapeMetrics(t *testing.T, ts *httptest.Server) *promDoc {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("GET /metrics Content-Type %q", ct)
	}
	return parseProm(t, string(body))
}

// awaitRunsQuiet polls a model's run counters until two consecutive
// snapshots agree — in-flight runs from a prior phase have finished, so the
// next phase's counter deltas are exact.
func awaitRunsQuiet(t *testing.T, reg *serve.Registry, model string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	prev, err := reg.ModelStatsFor(model)
	if err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		time.Sleep(30 * time.Millisecond)
		cur, err := reg.ModelStatsFor(model)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Pool.Runs == prev.Pool.Runs && cur.Pool.Items == prev.Pool.Items &&
			cur.Admission.Panics == prev.Admission.Panics {
			return
		}
		prev = cur
	}
	t.Fatal("runs never went quiet")
}

func TestMetricsContract(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	writeBundles(t, dir, "tiny-cnn", "tiny-resnet")
	cfg := serve.RegistryConfig{Defaults: serve.Config{
		QueueDepth:       4,
		BreakerThreshold: -1, // keep 500s/panics out of breaker state
		DrainTimeout:     time.Second,
	}}
	reg, ts := chaosServer(t, dir, cfg, "tiny-cnn", "tiny-resnet")
	in := chaosInput()
	body := inferBody(t, in)
	labels := func(kv ...string) map[string]string {
		m := map[string]string{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = kv[i+1]
		}
		return m
	}

	// Baseline: a fresh server is ready, exposes the per-model gauges for
	// every loaded model, and elides all-zero counter series.
	base := scrapeMetrics(t, ts)
	if v := base.value(t, "neocpu_health_state", labels("state", "ready")); v != 1 {
		t.Fatalf("health_state{ready} = %g at boot", v)
	}
	for _, state := range []string{"degraded", "draining", "closed"} {
		if v := base.value(t, "neocpu_health_state", labels("state", state)); v != 0 {
			t.Fatalf("health_state{%s} = %g at boot", state, v)
		}
	}
	if v := base.value(t, "neocpu_pool_max_sessions", labels("model", "tiny-resnet")); v < 1 {
		t.Fatalf("pool_max_sessions{tiny-resnet} = %g", v)
	}
	if _, ok := base.lookup("neocpu_requests_total", labels("model", "tiny-resnet", "code", "200")); ok {
		t.Fatal("zero requests_total series not elided at boot")
	}

	// Phase 1 — successes: 5 sequential 200s on tiny-resnet.
	const okReqs = 5
	for i := 0; i < okReqs; i++ {
		status, _, _, err := chaosPost(ts, "tiny-resnet", body, nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("success request %d: status %d err %v", i, status, err)
		}
	}

	// Phase 2 — unknown models: names the repository never registered count
	// in the unlabeled counter and must not mint per-model series (a hostile
	// client cannot grow the exposition).
	for _, name := range []string{"no-such-model", "evil%22mod%0Ael"} {
		status, _, _, err := chaosPost(ts, name, body, nil)
		if err != nil || status != http.StatusNotFound {
			t.Fatalf("unknown model %q: status %d err %v", name, status, err)
		}
	}

	// Phase 3 — saturation: 80ms runs against 50ms budgets on a 4-deep
	// queue. Every request resolves as 504 (budget expiry) or 429
	// (backpressure); tally what the clients saw for the exact-delta check.
	removeDelay := faults.Inject(faults.SiteBatcherDispatch,
		faults.OnLabel("tiny-cnn", faults.Delay(80*time.Millisecond)))
	const saturate = 8
	var mu sync.Mutex
	clientCodes := map[int]int{}
	var wg sync.WaitGroup
	for c := 0; c < saturate; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, _, err := chaosPost(ts, "tiny-cnn", body, map[string]string{"X-Request-Timeout": "50ms"})
			if err != nil {
				t.Errorf("saturation transport error: %v", err)
				return
			}
			mu.Lock()
			clientCodes[status]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	removeDelay()
	for code := range clientCodes {
		if code != http.StatusGatewayTimeout && code != http.StatusTooManyRequests {
			t.Fatalf("saturation answered %d (counts %v)", code, clientCodes)
		}
	}
	if clientCodes[http.StatusGatewayTimeout] == 0 {
		t.Fatalf("no 504 under saturation (counts %v)", clientCodes)
	}
	// Let every delayed run finish so the panic phase's deltas are exact.
	awaitRunsQuiet(t, reg, "tiny-cnn")
	preStats, err := reg.ModelStatsFor("tiny-cnn")
	if err != nil {
		t.Fatal(err)
	}

	// Phase 4 — panics: each request panics, quarantines its session and
	// answers 500.
	removePanic := faults.Inject(faults.SiteSessionRun,
		faults.OnLabel("tiny-cnn", faults.Panic("metrics contract: injected panic")))
	const panics = 2
	for i := 0; i < panics; i++ {
		status, _, _, err := chaosPost(ts, "tiny-cnn", body, nil)
		if err != nil || status != http.StatusInternalServerError {
			t.Fatalf("panic request %d: status %d err %v", i, status, err)
		}
	}
	removePanic()

	// The contract: every family present, every counter delta exactly what
	// the clients observed.
	doc := scrapeMetrics(t, ts)
	if v := doc.value(t, "neocpu_requests_total", labels("model", "tiny-resnet", "code", "200")); v != okReqs {
		t.Fatalf("requests_total{tiny-resnet,200} = %g, want %d", v, okReqs)
	}
	if v := doc.value(t, "neocpu_unknown_model_requests_total", nil); v != 2 {
		t.Fatalf("unknown_model_requests_total = %g, want 2", v)
	}
	for code, n := range clientCodes {
		got := doc.value(t, "neocpu_requests_total", labels("model", "tiny-cnn", "code", strconv.Itoa(code)))
		if got != float64(n) {
			t.Fatalf("requests_total{tiny-cnn,%d} = %g, clients saw %d", code, got, n)
		}
	}
	if v := doc.value(t, "neocpu_requests_total", labels("model", "tiny-cnn", "code", "500")); v != panics {
		t.Fatalf("requests_total{tiny-cnn,500} = %g, want %d", v, panics)
	}
	if v := doc.value(t, "neocpu_session_discards_total", labels("model", "tiny-cnn")); v != float64(preStats.Pool.Discards)+panics {
		t.Fatalf("session_discards_total{tiny-cnn} = %g, want %d", v, preStats.Pool.Discards+panics)
	}
	if v := doc.value(t, "neocpu_exec_panics_total", labels("model", "tiny-cnn")); v != float64(preStats.Admission.Panics)+panics {
		t.Fatalf("exec_panics_total{tiny-cnn} = %g, want %d", v, preStats.Admission.Panics+panics)
	}

	// A hostile model name never becomes a series.
	for _, f := range doc.families {
		for _, s := range f.samples {
			if m, ok := s.labels["model"]; ok && m != "tiny-cnn" && m != "tiny-resnet" {
				t.Fatalf("unexpected model label %q in %s", m, s.name)
			}
		}
	}

	// Histograms: well-formed for both models; tiny-resnet's counts are
	// exact (5 sequential requests, each admitted and run once).
	for _, fam := range []string{
		"neocpu_request_duration_seconds",
		"neocpu_queue_wait_seconds",
		"neocpu_batch_duration_seconds",
	} {
		if n := checkHistogram(t, doc, fam, "tiny-resnet"); n != okReqs {
			t.Fatalf("%s{tiny-resnet} count = %g, want %d", fam, n, okReqs)
		}
		checkHistogram(t, doc, fam, "tiny-cnn")
	}
	// Nothing coalesces requests, so no family describes coalescing.
	for _, fam := range []string{
		"neocpu_batches_total",
		"neocpu_sharded_batches_total",
		"neocpu_batch_shards_total",
		"neocpu_batch_size",
	} {
		if _, ok := doc.families[fam]; ok {
			t.Fatalf("family %s is exposed", fam)
		}
	}

	// Gauges settle with no traffic in flight.
	if v := doc.value(t, "neocpu_queue_depth", labels("model", "tiny-resnet")); v != 0 {
		t.Fatalf("queue_depth{tiny-resnet} = %g at rest", v)
	}
	if v := doc.value(t, "neocpu_health_state", labels("state", "ready")); v != 1 {
		t.Fatalf("health_state{ready} = %g after traffic (breaker disabled)", v)
	}

	// Both surfaces read one store: /v2/stats equals /metrics exactly.
	stats := getRepoStats(t, ts)
	checkSurfacesAgree(t, reg, stats, doc)

	// Second scrape: no counter goes backwards, scraping is side-effect-free
	// on the counters themselves.
	checkMonotonic(t, doc, scrapeMetrics(t, ts))

	// A reload rebuilds tiny-resnet's pool and admission front; no counter
	// may reset with them.
	if err := reg.Unload("tiny-resnet"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("tiny-resnet"); err != nil {
		t.Fatal(err)
	}
	reloaded := getRepoStats(t, ts)
	for i, ms := range stats.Models {
		if got, want := cumulative(reloaded.Models[i]), cumulative(ms); got != want {
			t.Fatalf("%s counters changed across a reload: %+v, then %+v", ms.Model, want, got)
		}
	}
	after := scrapeMetrics(t, ts)
	checkMonotonic(t, doc, after)
	checkSurfacesAgree(t, reg, reloaded, after)
}

// getRepoStats GETs a repository server's /v2/stats.
func getRepoStats(t *testing.T, ts *httptest.Server) serve.RegistryStats {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.RegistryStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// cumulative keeps a stats row's counters and drops its live values, which a
// reload legitimately resets.
func cumulative(ms serve.ModelStats) serve.ModelStats {
	return serve.ModelStats{
		Model: ms.Model,
		Pool: serve.PoolStats{
			Acquires: ms.Pool.Acquires, Waits: ms.Pool.Waits, Discards: ms.Pool.Discards,
			Runs: ms.Pool.Runs, Items: ms.Pool.Items, Busy: ms.Pool.Busy,
		},
		Admission: serve.AdmissionStats{
			Rejected: ms.Admission.Rejected, Shed: ms.Admission.Shed, Panics: ms.Admission.Panics,
		},
	}
}

// checkSurfacesAgree: every counter /v2/stats shares with /metrics reads
// the same on both, for every model (the server must be quiet).
func checkSurfacesAgree(t *testing.T, reg *serve.Registry, st serve.RegistryStats, doc *promDoc) {
	t.Helper()
	for _, ms := range st.Models {
		model := map[string]string{"model": ms.Model}
		for _, c := range []struct {
			stat   string
			v      uint64
			family string
		}{
			{"pool.discards", ms.Pool.Discards, "neocpu_session_discards_total"},
			{"admission.panics", ms.Admission.Panics, "neocpu_exec_panics_total"},
			{"pool.runs", ms.Pool.Runs, "neocpu_batch_duration_seconds_count"},
		} {
			if got := doc.value(t, c.family, model); got != float64(c.v) {
				t.Fatalf("%s: /v2/stats %s = %d, /metrics %s = %g", ms.Model, c.stat, c.v, c.family, got)
			}
		}
	}
	ev := doc.value(t, "neocpu_model_evictions_total", nil)
	if ev != float64(reg.Evictions()) || ev != float64(st.Evictions) {
		t.Fatalf("evictions: /metrics %g, Evictions() %d, /v2/stats %d", ev, reg.Evictions(), st.Evictions)
	}
}

// TestStatsConsistentUnderLoad is the /v2/stats tearing regression: Stats
// snapshots racing live traffic must each be internally consistent —
// Waits <= Acquires and Items <= Runs (each pair is incremented in one
// order and loaded in the other), Idle <= Size <= MaxSize — and the
// counters monotonic across snapshots. Run under -race in CI.
func TestStatsConsistentUnderLoad(t *testing.T) {
	mod := newModule(t)
	srv, _ := newServer(t, mod, serve.Config{PoolSize: 2, QueueDepth: 64})
	h := srv.Handler()
	body := inferBody(t, testInput(5))

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	for c := 0; c < 4; c++ {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/v2/models/tiny-resnet/infer", bytes.NewReader(body))
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
					t.Errorf("traffic status %d", rec.Code)
					return
				}
			}
		}()
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	var prev serve.ModelStats
	snapshots := 0
	for time.Now().Before(deadline) {
		st := srv.Stats()
		snapshots++
		p := st.Pool
		if p.Waits > p.Acquires || p.Items > p.Runs {
			t.Fatalf("torn snapshot: waits %d, acquires %d, items %d, runs %d", p.Waits, p.Acquires, p.Items, p.Runs)
		}
		if p.Idle > p.Size || p.Size > p.MaxSize {
			t.Fatalf("torn snapshot: idle %d size %d max %d", p.Idle, p.Size, p.MaxSize)
		}
		if p.Acquires < prev.Pool.Acquires || p.Items < prev.Pool.Items || st.Admission.Rejected < prev.Admission.Rejected {
			t.Fatalf("counters went backwards between snapshots: %+v then %+v", prev, st)
		}
		prev = st
	}
	close(stop)
	traffic.Wait()
	if snapshots < 10 {
		t.Fatalf("only %d snapshots taken", snapshots)
	}
	t.Logf("%d consistent snapshots against live traffic", snapshots)
}

// TestIdleServerRunsWithoutQueueWait: on an idle server a request runs as
// soon as it is admitted. Twenty sequential requests must spend under 20ms
// in total between admission and holding a session; a server that lingers
// for companions (2ms per request) fails this.
func TestIdleServerRunsWithoutQueueWait(t *testing.T) {
	mod := newModule(t)
	_, ts := newServer(t, mod, serve.Config{})
	body := inferBody(t, testInput(4))
	const n = 20
	for i := 0; i < n; i++ {
		if _, code := postInfer(t, ts.Client(), ts.URL, body); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	doc := scrapeMetrics(t, ts)
	model := map[string]string{"model": "tiny-resnet"}
	if c := doc.value(t, "neocpu_queue_wait_seconds_count", model); c != n {
		t.Fatalf("queue_wait_seconds_count = %g, want %d", c, n)
	}
	if sum := doc.value(t, "neocpu_queue_wait_seconds_sum", model); sum >= 0.020 {
		t.Fatalf("%d requests on an idle server waited %.1fms in total, want < 20ms", n, sum*1000)
	}
}
