// Chaos suite: fault-injection tests for the serving stack's robustness
// story. Every test here runs under -race in CI and drives the stack through
// its public surface (HTTP or Registry) while internal/faults arms failures
// at named sites. The invariants proved: a panicking model never crashes the
// process or perturbs a co-hosted healthy model's bit-identical outputs;
// circuit breakers walk degraded → half-open → ready; deadline budgets
// resolve promptly against saturated queues instead of hanging; shutdown
// during traffic drains cleanly; and transient repository faults retry while
// deterministic ones fail fast.
package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// chaosServer builds a repository-backed HTTP server over the given bundle
// directory with per-test serving defaults, loading every named model.
func chaosServer(t *testing.T, dir string, cfg serve.RegistryConfig, load ...string) (*serve.Registry, *httptest.Server) {
	t.Helper()
	reg := newRepoRegistry(t, dir, cfg)
	for _, name := range load {
		if err := reg.Load(name); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	srv, err := serve.NewRepository(reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return reg, ts
}

// chaosPost sends one infer and returns the status, decoded response (on
// 200) and the Retry-After header. Safe to call from test goroutines.
func chaosPost(ts *httptest.Server, model string, body []byte, hdr map[string]string) (int, *serve.InferResponse, string, error) {
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/models/"+model+"/infer", bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	retryAfter := resp.Header.Get("Retry-After")
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, retryAfter, nil
	}
	var ir serve.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		return resp.StatusCode, nil, retryAfter, err
	}
	return resp.StatusCode, &ir, retryAfter, nil
}

// exactOutput asserts a 200 response's first output is bit-identical to the
// reference tensor.
func exactOutput(t *testing.T, ir *serve.InferResponse, want *tensor.Tensor) {
	t.Helper()
	if len(ir.Outputs) != 1 || len(ir.Outputs[0].Data) != len(want.Data) {
		t.Fatalf("response shape mismatch: %d outputs", len(ir.Outputs))
	}
	for i, v := range ir.Outputs[0].Data {
		if v != want.Data[i] {
			t.Fatalf("output[%d] = %v, want %v (not bit-identical)", i, v, want.Data[i])
		}
	}
}

func chaosInput() *tensor.Tensor {
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(7, 1)
	return in
}

// TestChaosPanicIsolationAcrossModels is the headline robustness invariant:
// while one co-hosted model's kernels panic on every batch, (1) the process
// never exits, (2) the panicking model's clients get clean 500s, (3) the
// healthy model's responses stay bit-identical to the engine's own output,
// and (4) healing the fault restores the panicked model (its quarantined
// sessions were discarded and replaced, its module untouched).
func TestChaosPanicIsolationAcrossModels(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	writeBundles(t, dir, "tiny-cnn", "tiny-resnet")
	cfg := serve.RegistryConfig{Defaults: serve.Config{
		MaxBatch: 2, MaxLatency: serve.NoLatency, QueueDepth: 64,
		BreakerThreshold: -1, // isolate panic handling from circuit breaking
		DrainTimeout:     time.Second,
	}}
	reg, ts := chaosServer(t, dir, cfg, "tiny-cnn", "tiny-resnet")

	in := chaosInput()
	body := inferBody(t, in)
	wantHealthy := refOutput(t, "tiny-resnet", in)

	faults.Inject(faults.SiteSessionRun,
		faults.OnLabel("tiny-cnn", faults.Panic("chaos: injected kernel panic")))

	const clients = 6
	var wg sync.WaitGroup
	var faulted500 atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			status, ir, _, err := chaosPost(ts, "tiny-resnet", body, nil)
			if err != nil || status != http.StatusOK {
				t.Errorf("healthy model: status %d err %v", status, err)
				return
			}
			exactOutput(t, ir, wantHealthy)
		}()
		go func() {
			defer wg.Done()
			status, _, _, err := chaosPost(ts, "tiny-cnn", body, nil)
			if err != nil {
				t.Errorf("faulted model transport error: %v", err)
				return
			}
			if status != http.StatusInternalServerError {
				t.Errorf("faulted model: status %d, want 500", status)
				return
			}
			faulted500.Add(1)
		}()
	}
	wg.Wait()
	if faulted500.Load() != clients {
		t.Fatalf("faulted model answered 500 for %d/%d requests", faulted500.Load(), clients)
	}

	// Each panicked batch quarantined its session out of the pool.
	st, err := reg.ModelStatsFor("tiny-cnn")
	if err != nil {
		t.Fatal(err)
	}
	if st.Pool.Discards == 0 || st.Batch.Panics == 0 {
		t.Fatalf("no quarantine recorded: discards=%d panics=%d", st.Pool.Discards, st.Batch.Panics)
	}

	// Heal the fault: the module (weights, plan) survived untouched, and the
	// pool grows fresh sessions to replace the quarantined ones.
	faults.Reset()
	wantFaulted := refOutput(t, "tiny-cnn", in)
	status, ir, _, err := chaosPost(ts, "tiny-cnn", body, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("healed model: status %d err %v", status, err)
	}
	exactOutput(t, ir, wantFaulted)
}

// TestChaosBreakerDegradedHalfOpenReady walks the circuit breaker through
// its full lifecycle via the HTTP surface: repeated execution failures trip
// the model into degraded (503 + Retry-After, health reports "degraded"),
// the cooldown admits a half-open probe, and a successful probe restores
// ready with bit-identical outputs.
func TestChaosBreakerDegradedHalfOpenReady(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	writeBundles(t, dir, "tiny-cnn")
	const cooldown = 100 * time.Millisecond
	cfg := serve.RegistryConfig{Defaults: serve.Config{
		MaxBatch: 1, MaxLatency: serve.NoLatency, QueueDepth: 16,
		BreakerThreshold: 2, BreakerWindow: 10 * time.Second, BreakerCooldown: cooldown,
		DrainTimeout: time.Second,
	}}
	_, ts := chaosServer(t, dir, cfg, "tiny-cnn")
	in := chaosInput()
	body := inferBody(t, in)

	health := func() string {
		resp, err := ts.Client().Get(ts.URL + "/v2/health/ready")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var payload struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			t.Fatal(err)
		}
		return payload.State
	}

	if got := health(); got != "ready" {
		t.Fatalf("initial health %q", got)
	}

	// Two failing batches cross the threshold.
	faults.Inject(faults.SiteBatcherDispatch,
		faults.OnLabel("tiny-cnn", faults.Error(errors.New("chaos: executor failure"))))
	for i := 0; i < 2; i++ {
		if status, _, _, _ := chaosPost(ts, "tiny-cnn", body, nil); status != http.StatusInternalServerError {
			t.Fatalf("failing request %d: status %d, want 500", i, status)
		}
	}

	// Degraded: infers answer 503 with a Retry-After, health and the
	// per-model readiness both flag it.
	status, _, retryAfter, _ := chaosPost(ts, "tiny-cnn", body, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("degraded infer: status %d, want 503", status)
	}
	if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
		t.Fatalf("degraded Retry-After %q, want integer >= 1", retryAfter)
	}
	if got := health(); got != "degraded" {
		t.Fatalf("health %q, want degraded", got)
	}
	resp, err := ts.Client().Get(ts.URL + "/v2/models/tiny-cnn/ready")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Ready bool   `json:"ready"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready || ready.State != "degraded" {
		t.Fatalf("model ready endpoint: status %d payload %+v, want 503/degraded", resp.StatusCode, ready)
	}

	// Heal the fault and wait out the cooldown: the next request is the
	// half-open probe, succeeds, and closes the breaker.
	faults.Reset()
	time.Sleep(cooldown + 50*time.Millisecond)
	want := refOutput(t, "tiny-cnn", in)
	status, ir, _, err := chaosPost(ts, "tiny-cnn", body, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("probe after cooldown: status %d err %v", status, err)
	}
	exactOutput(t, ir, want)
	if got := health(); got != "ready" {
		t.Fatalf("health after recovery %q, want ready", got)
	}
}

// TestChaosDeadlineAgainstSaturatedQueue is the acceptance scenario: 50ms
// deadline budgets against a queue saturated by 80ms batches must resolve
// promptly as 504 (or 429 backpressure) — never hang until some transport
// timeout.
func TestChaosDeadlineAgainstSaturatedQueue(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	writeBundles(t, dir, "tiny-cnn")
	cfg := serve.RegistryConfig{Defaults: serve.Config{
		MaxBatch: 1, MaxLatency: serve.NoLatency, QueueDepth: 4,
		DrainTimeout: time.Second,
	}}
	_, ts := chaosServer(t, dir, cfg, "tiny-cnn")
	body := inferBody(t, chaosInput())

	faults.Inject(faults.SiteBatcherDispatch, faults.Delay(80*time.Millisecond))

	const clients = 12
	start := time.Now()
	statuses := make(chan int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, _, err := chaosPost(ts, "tiny-cnn", body, map[string]string{"X-Request-Timeout": "50ms"})
			if err != nil {
				t.Errorf("transport error: %v", err)
				return
			}
			statuses <- status
		}()
	}
	wg.Wait()
	close(statuses)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline flood took %v — requests hung instead of failing fast", elapsed)
	}
	counts := map[int]int{}
	for s := range statuses {
		counts[s]++
	}
	for s := range counts {
		if s != http.StatusGatewayTimeout && s != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d under 50ms budget vs 80ms batches (counts %v)", s, counts)
		}
	}
	if counts[http.StatusGatewayTimeout] == 0 {
		t.Fatalf("no request answered 504 (counts %v)", counts)
	}
}

// TestChaosCloseDuringTraffic is the close-during-traffic regression: Close
// racing live requests must resolve every request (success or a clean 5xx),
// drain in-flight batches, and never deadlock or leak a panic.
func TestChaosCloseDuringTraffic(t *testing.T) {
	mod := newModule(t)
	s, err := serve.New(mod, "", serve.Config{
		MaxBatch: 2, MaxLatency: serve.NoLatency, QueueDepth: 32,
		DrainTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := testInput(3)
	body := inferBody(t, in)
	want := wantOutput(t, mod, in)

	const clients = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v2/models/tiny-resnet/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				// Connection-level failure is acceptable only after close.
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var ir serve.InferResponse
				if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				exactOutput(t, &ir, want)
			case http.StatusServiceUnavailable, http.StatusTooManyRequests:
				io.Copy(io.Discard, resp.Body)
			default:
				t.Errorf("status %d during close", resp.StatusCode)
			}
		}()
	}
	// Let some requests get in flight, then close concurrently with traffic.
	time.Sleep(5 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return while traffic was in flight")
	}
	// Idempotent second close.
	s.Close()
}

// TestChaosTransientLoadRetry: a repository load that fails once with a
// retryable (truncation-class) error must succeed on retry; a deterministic
// failure must fail fast without burning retries.
func TestChaosTransientLoadRetry(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	writeBundles(t, dir, "tiny-cnn")
	reg := newRepoRegistry(t, dir, serve.RegistryConfig{Defaults: serve.Config{
		MaxBatch: 1, MaxLatency: serve.NoLatency, DrainTimeout: time.Second,
	}})

	// One torn read, then healed: the retry loop must absorb it.
	faults.Inject(faults.SiteRegistryLoad,
		faults.Times(1, faults.Error(fmt.Errorf("chaos: %w", artifact.ErrTruncated))))
	if err := reg.Load("tiny-cnn"); err != nil {
		t.Fatalf("transient failure not retried: %v", err)
	}
	if n := faults.Count(faults.SiteRegistryLoad); n < 2 {
		t.Fatalf("load site fired %d times, want >= 2 (retry)", n)
	}
	if err := reg.Unload("tiny-cnn"); err != nil {
		t.Fatal(err)
	}
	faults.Reset()

	// Deterministic failure: exactly one attempt, then StateFailed.
	faults.Inject(faults.SiteRegistryLoad, faults.Error(errors.New("chaos: deterministic failure")))
	if err := reg.Load("tiny-cnn"); err == nil {
		t.Fatal("deterministic failure load succeeded")
	}
	if n := faults.Count(faults.SiteRegistryLoad); n != 1 {
		t.Fatalf("deterministic failure burned %d attempts, want 1", n)
	}
	if st := indexState(reg.Index(), "tiny-cnn"); st != string(serve.StateFailed) {
		t.Fatalf("state %q after failed load, want failed", st)
	}

	// Healed: loadable again.
	faults.Reset()
	if err := reg.Load("tiny-cnn"); err != nil {
		t.Fatalf("load after heal: %v", err)
	}
}

// TestChaosTornBundleRead: a bundle whose byte stream tears mid-read (a
// half-written file) must fail closed as an invalid/truncated artifact after
// exhausting the retry budget — truncation is retryable, so all attempts are
// spent — and load cleanly once the stream heals.
func TestChaosTornBundleRead(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	writeBundles(t, dir, "tiny-cnn")
	reg := newRepoRegistry(t, dir, serve.RegistryConfig{Defaults: serve.Config{
		MaxBatch: 1, MaxLatency: serve.NoLatency, DrainTimeout: time.Second,
	}})

	faults.InjectReader(faults.SiteBundleRead, faults.TornReader(64))
	err := reg.Load("tiny-cnn")
	if err == nil {
		t.Fatal("torn bundle loaded")
	}
	if !errors.Is(err, artifact.ErrInvalidArtifact) || !errors.Is(err, artifact.ErrTruncated) {
		t.Fatalf("torn bundle error %v, want ErrInvalidArtifact and ErrTruncated", err)
	}
	if n := faults.Count(faults.SiteBundleRead); n != 3 {
		t.Fatalf("bundle read attempted %d times, want 3 (truncation retries)", n)
	}

	faults.Reset()
	if err := reg.Load("tiny-cnn"); err != nil {
		t.Fatalf("load after heal: %v", err)
	}
	in := chaosInput()
	want := refOutput(t, "tiny-cnn", in)
	outs, err := reg.Infer(t.Context(), "tiny-cnn", in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range outs[0].Data {
		if v != want.Data[i] {
			t.Fatalf("output[%d] diverges after torn-read recovery", i)
		}
	}
}

// TestChaosDrainRefusesNewAdmitsInflight: Drain must flip readiness to
// draining (503), refuse new infers with 503, and let already-admitted
// requests complete.
func TestChaosDrainRefusesNewAdmitsInflight(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	writeBundles(t, dir, "tiny-cnn")
	cfg := serve.RegistryConfig{Defaults: serve.Config{
		MaxBatch: 1, MaxLatency: serve.NoLatency, QueueDepth: 16,
		DrainTimeout: 2 * time.Second,
	}}
	reg, ts := chaosServer(t, dir, cfg, "tiny-cnn")
	in := chaosInput()
	body := inferBody(t, in)
	want := refOutput(t, "tiny-cnn", in)

	// Slow batches so a request is reliably in flight when Drain lands.
	faults.Inject(faults.SiteBatcherDispatch, faults.Delay(50*time.Millisecond))
	dispatched := faults.Count(faults.SiteBatcherDispatch)

	inflight := make(chan struct{ status int }, 1)
	go func() {
		status, ir, _, _ := chaosPost(ts, "tiny-cnn", body, nil)
		if status == http.StatusOK {
			exactOutput(t, ir, want)
		}
		inflight <- struct{ status int }{status}
	}()
	// Drain only once the request has passed admission and sits in its
	// batch: a fixed sleep loses that race on a slow or -race build.
	for deadline := time.Now().Add(10 * time.Second); faults.Count(faults.SiteBatcherDispatch) == dispatched; {
		if time.Now().After(deadline) {
			t.Fatal("request never reached batch dispatch")
		}
		time.Sleep(time.Millisecond)
	}
	reg.Drain()

	// New request after Drain: refused.
	if status, _, _, _ := chaosPost(ts, "tiny-cnn", body, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("infer during drain: status %d, want 503", status)
	}
	// Health reports draining with 503.
	resp, err := ts.Client().Get(ts.URL + "/v2/health/ready")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Ready bool   `json:"ready"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || payload.Ready || payload.State != "draining" {
		t.Fatalf("health during drain: status %d payload %+v", resp.StatusCode, payload)
	}
	// The in-flight request still completed (200).
	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", r.status)
	}
}
