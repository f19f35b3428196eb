// Black-box tests for the serving subsystem: every test in this file drives
// the server exclusively through its HTTP surface (httptest + the v2 JSON
// protocol), the way a real client would. This suite is the template for
// testing future serving features: correctness is asserted against the
// engine's own outputs, concurrency runs under -race, coalescing and
// backpressure are asserted from observable behaviour (stats endpoint,
// status codes), never from package internals.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// newModule compiles the serving test model: small enough for -race
// concurrency tests, structurally rich (residual blocks), serial backend so
// pooled sessions genuinely parallelize.
func newModule(t testing.TB) *core.Module {
	t.Helper()
	m, err := core.Compile(models.TinyResNet(4), machine.IntelSkylakeC5(), core.Options{
		Level: core.OptTransformElim, Threads: 1, Backend: machine.BackendSerial,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func newServer(t testing.TB, mod *core.Module, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(mod, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// testInput builds the deterministic input for one client seed.
func testInput(seed uint64) *tensor.Tensor {
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(seed, 1)
	return in
}

func inferBody(t testing.TB, in *tensor.Tensor) []byte {
	t.Helper()
	body, err := json.Marshal(serve.InferRequest{
		Inputs: []serve.InferTensor{{
			Name: "input", Shape: in.Shape, Datatype: "FP32", Data: in.Data,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postInfer sends one inference and decodes the response.
func postInfer(t testing.TB, client *http.Client, url string, body []byte) (*serve.InferResponse, int) {
	t.Helper()
	resp, err := client.Post(url+"/v2/models/tiny-resnet/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var ir serve.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	return &ir, resp.StatusCode
}

// wantOutput runs the reference engine path for one input.
func wantOutput(t testing.TB, mod *core.Module, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	outs, err := mod.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return outs[0]
}

func checkInferResponse(t *testing.T, ir *serve.InferResponse, want *tensor.Tensor) {
	t.Helper()
	if ir.ModelName != "tiny-resnet" {
		t.Fatalf("model_name %q", ir.ModelName)
	}
	if len(ir.Outputs) != 1 {
		t.Fatalf("got %d outputs", len(ir.Outputs))
	}
	out := ir.Outputs[0]
	if out.Datatype != "FP32" || len(out.Data) != len(want.Data) {
		t.Fatalf("output %q/%v with %d values, want %d", out.Datatype, out.Shape, len(out.Data), len(want.Data))
	}
	for i, v := range out.Data {
		if v != want.Data[i] {
			t.Fatalf("output[%d] = %v, want %v (served result must be bit-identical)", i, v, want.Data[i])
		}
	}
}

func TestInferMatchesEngine(t *testing.T) {
	mod := newModule(t)
	_, ts := newServer(t, mod, serve.Config{PoolSize: 1, MaxLatency: serve.NoLatency})
	in := testInput(7)
	ir, code := postInfer(t, ts.Client(), ts.URL, inferBody(t, in))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	checkInferResponse(t, ir, wantOutput(t, mod, in))
}

func TestProtocolEndpoints(t *testing.T) {
	mod := newModule(t)
	_, ts := newServer(t, mod, serve.Config{PoolSize: 1})
	client := ts.Client()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	if code, _ := get("/v2"); code != http.StatusOK {
		t.Fatalf("/v2: %d", code)
	}
	if code, m := get("/v2/health/live"); code != http.StatusOK || m["live"] != true {
		t.Fatalf("/v2/health/live: %d %v", code, m)
	}
	if code, m := get("/v2/health/ready"); code != http.StatusOK || m["ready"] != true {
		t.Fatalf("/v2/health/ready: %d %v", code, m)
	}
	if code, m := get("/v2/models/tiny-resnet"); code != http.StatusOK || m["platform"] != "neocpu-go" {
		t.Fatalf("model metadata: %d %v", code, m)
	}
	if code, _ := get("/v2/models/tiny-resnet/ready"); code != http.StatusOK {
		t.Fatalf("model ready: %d", code)
	}
	if code, _ := get("/v2/models/other-model/ready"); code != http.StatusNotFound {
		t.Fatalf("unknown model ready: %d, want 404", code)
	}
	if code, _ := get("/v2/stats"); code != http.StatusOK {
		t.Fatalf("/v2/stats: %d", code)
	}

	// Error paths: every malformed request must be a clean 4xx, never a 500.
	post := func(path string, body string) int {
		t.Helper()
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	infer := "/v2/models/tiny-resnet/infer"
	if code := post("/v2/models/nope/infer", "{}"); code != http.StatusNotFound {
		t.Fatalf("wrong model: %d, want 404", code)
	}
	if code := post(infer, "{nope"); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d, want 400", code)
	}
	if code := post(infer, `{"inputs":[]}`); code != http.StatusBadRequest {
		t.Fatalf("no inputs: %d, want 400", code)
	}
	if code := post(infer, `{"inputs":[{"name":"input","shape":[1,3,8,8],"datatype":"FP32","data":[0]}]}`); code != http.StatusBadRequest {
		t.Fatalf("wrong shape: %d, want 400", code)
	}
	if code := post(infer, `{"inputs":[{"name":"input","shape":[1,3,32,32],"datatype":"INT64","data":[0]}]}`); code != http.StatusBadRequest {
		t.Fatalf("wrong datatype: %d, want 400", code)
	}
	if code := post(infer, `{"inputs":[{"name":"input","shape":[1,3,32,32],"datatype":"FP32","data":[1,2,3]}]}`); code != http.StatusBadRequest {
		t.Fatalf("short data: %d, want 400", code)
	}
}

// TestConcurrentClientsCoalesce is the acceptance-criteria test: 64
// concurrent clients under -race, every response bit-identical to the
// engine's own output for that client's distinct input, and the micro-batcher
// must demonstrably coalesce (observed batch sizes > 1) while requests
// contend for a pool smaller than the client count.
func TestConcurrentClientsCoalesce(t *testing.T) {
	mod := newModule(t)
	srv, ts := newServer(t, mod, serve.Config{
		PoolSize:   2,
		MaxBatch:   8,
		MaxLatency: 5 * time.Millisecond,
		QueueDepth: 256,
	})

	const clients = 64
	const runsEach = 2
	// Precompute per-client reference outputs (distinct inputs, so a
	// misrouted batch response cannot go unnoticed).
	bodies := make([][]byte, clients)
	wants := make([]*tensor.Tensor, clients)
	for c := 0; c < clients; c++ {
		in := testInput(uint64(100 + c))
		bodies[c] = inferBody(t, in)
		wants[c] = wantOutput(t, mod, in)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			for r := 0; r < runsEach; r++ {
				resp, err := client.Post(ts.URL+"/v2/models/tiny-resnet/infer", "application/json", bytes.NewReader(bodies[c]))
				if err != nil {
					errs <- err
					return
				}
				var ir serve.InferResponse
				err = json.NewDecoder(resp.Body).Decode(&ir)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d run %d: status %d", c, r, resp.StatusCode)
					return
				}
				if len(ir.Outputs) != 1 || len(ir.Outputs[0].Data) != len(wants[c].Data) {
					errs <- fmt.Errorf("client %d run %d: malformed outputs", c, r)
					return
				}
				for i, v := range ir.Outputs[0].Data {
					if v != wants[c].Data[i] {
						errs <- fmt.Errorf("client %d run %d: output[%d] = %v, want %v (batching must be deterministic)", c, r, i, v, wants[c].Data[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.Batch.Items != clients*runsEach {
		t.Fatalf("batcher carried %d items, want %d", st.Batch.Items, clients*runsEach)
	}
	if st.Batch.MaxObserved <= 1 {
		t.Fatalf("max observed batch size %d: micro-batcher never coalesced under %d concurrent clients", st.Batch.MaxObserved, clients)
	}
	if st.Pool.Size > 2 {
		t.Fatalf("pool grew to %d sessions, bound is 2", st.Pool.Size)
	}
	t.Logf("batches=%d items=%d mean=%.2f max=%d pool_waits=%d",
		st.Batch.Batches, st.Batch.Items,
		float64(st.Batch.Items)/float64(st.Batch.Batches), st.Batch.MaxObserved, st.Pool.Waits)
}

// TestBackpressure asserts the bounded queue: a burst far beyond
// queue+pool capacity must see 429s (with Retry-After) while admitted
// requests still complete correctly.
func TestBackpressure(t *testing.T) {
	// Serve the slow unoptimized-baseline build of the model: each inference
	// must outlast the Go scheduler's preemption tick (~10ms) so that, even
	// on a single-CPU machine, the burst's client goroutines get scheduled
	// against an occupied session and pile into the bounded queue.
	mod, err := core.Compile(models.TinyResNet(4), machine.IntelSkylakeC5(), core.Options{
		Level: core.OptNone, Threads: 1, Backend: machine.BackendSerial,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mod.Close)
	srv, ts := newServer(t, mod, serve.Config{
		PoolSize:   1,
		MaxBatch:   1,
		MaxLatency: serve.NoLatency,
		QueueDepth: 1,
	})
	in := testInput(3)
	body := inferBody(t, in)
	want := wantOutput(t, mod, in)

	const burst = 64
	var wg sync.WaitGroup
	type result struct {
		code  int
		retry string
		ir    serve.InferResponse
	}
	results := make([]result, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v2/models/tiny-resnet/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			results[i].code = resp.StatusCode
			results[i].retry = resp.Header.Get("Retry-After")
			if resp.StatusCode == http.StatusOK {
				json.NewDecoder(resp.Body).Decode(&results[i].ir)
			} else {
				io.Copy(io.Discard, resp.Body)
			}
		}(i)
	}
	wg.Wait()

	var ok, rejected int
	for _, r := range results {
		switch r.code {
		case http.StatusOK:
			ok++
			if len(r.ir.Outputs) != 1 || r.ir.Outputs[0].Data[0] != want.Data[0] {
				t.Fatal("admitted request returned wrong output under pressure")
			}
		case http.StatusTooManyRequests:
			rejected++
			if r.retry == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", r.code)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded under burst")
	}
	if rejected == 0 {
		t.Fatalf("no request was rejected: %d-deep queue absorbed a %d-request burst", 1, burst)
	}
	// The server's accounting matches what the clients saw, exactly: every
	// 200 was carried through a batch, every 429 counted as a rejection.
	st := srv.Stats()
	if st.Batch.Items != uint64(ok) {
		t.Fatalf("batcher carried %d items, clients saw %d OK", st.Batch.Items, ok)
	}
	if st.Batch.Rejected != uint64(rejected) {
		t.Fatalf("stats counted %d rejections, clients saw %d 429s", st.Batch.Rejected, rejected)
	}
	t.Logf("burst=%d ok=%d rejected=%d", burst, ok, rejected)
}

// TestCancellationMidBatch: clients that abandon requests while they sit in
// the coalescing window must not poison the batch or wedge the server.
func TestCancellationMidBatch(t *testing.T) {
	mod := newModule(t)
	_, ts := newServer(t, mod, serve.Config{
		PoolSize:   1,
		MaxBatch:   4,
		MaxLatency: 300 * time.Millisecond,
		QueueDepth: 8,
	})
	body := inferBody(t, testInput(9))

	// Two requests enter the 300ms coalescing window, then both clients
	// hang up mid-batch.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/v2/models/tiny-resnet/infer", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := ts.Client().Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err == nil {
				t.Error("cancelled request unexpectedly completed")
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let both enter the window
	cancel()
	wg.Wait()

	// The server must still answer a live client, promptly and correctly.
	in := testInput(11)
	ir, code := postInfer(t, ts.Client(), ts.URL, inferBody(t, in))
	if code != http.StatusOK {
		t.Fatalf("post-cancellation status %d", code)
	}
	checkInferResponse(t, ir, wantOutput(t, mod, in))
}

// TestCloseUnreadies: a closed server reports unready and refuses inference
// instead of hanging.
func TestCloseUnreadies(t *testing.T) {
	mod := newModule(t)
	s, err := serve.New(mod, "", serve.Config{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()

	resp, err := ts.Client().Get(ts.URL + "/v2/health/ready")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready after close: %d, want 503", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/v2/models/tiny-resnet/infer", "application/json",
		bytes.NewReader(inferBody(t, testInput(1))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer after close: %d, want 503", resp.StatusCode)
	}
}

// TestInferAllocBudget is the pool-reuse acceptance check: steady-state
// request handling must allocate less than one session arena per request —
// i.e. serving N requests through pooled sessions beats creating a session
// (or allocating its tensors) per request by construction.
func TestInferAllocBudget(t *testing.T) {
	mod := newModule(t)
	srv, _ := newServer(t, mod, serve.Config{PoolSize: 1, MaxLatency: serve.NoLatency})
	h := srv.Handler()
	body := inferBody(t, testInput(5))
	do := func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v2/models/tiny-resnet/infer", bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 3; i++ {
		do() // warm the pool and the JSON paths
	}
	arena := srv.Stats().Pool.ArenaBytesPerSession
	if arena == 0 {
		t.Fatal("arena size hook reported 0")
	}

	const reps = 32
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		do()
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / reps
	t.Logf("per-request bytes: %d, one arena: %d", perReq, arena)
	if perReq >= uint64(arena) {
		t.Fatalf("per-request allocation %dB >= one arena (%dB): pool reuse is not paying for itself", perReq, arena)
	}
}

// BenchmarkServeInfer measures the full HTTP handler path per request
// (decode, batch, execute, encode) on a pooled session. Run with -benchmem:
// B/op must sit well below the reported arena_bytes/session.
func BenchmarkServeInfer(b *testing.B) {
	mod := newModule(b)
	srv, _ := newServer(b, mod, serve.Config{PoolSize: 1, MaxLatency: serve.NoLatency})
	h := srv.Handler()
	body := inferBody(b, testInput(5))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v2/models/tiny-resnet/infer", bytes.NewReader(body))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d", rec.Code)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v2/models/tiny-resnet/infer", bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(srv.Stats().Pool.ArenaBytesPerSession), "arena_bytes/session")
}
