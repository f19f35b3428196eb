// Field-contract tests for the JSON-lines access log: every inference
// request — success or any error path (400/404/413/429/504) — must emit
// exactly one line, each line valid JSON carrying exactly the contracted
// keys, with code/model/batch_id agreeing with what the client saw.
package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
)

// syncBuffer is a mutex-guarded log sink; the server writes lines while
// tests (and under -race, concurrent requests) read them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSuffix(b.buf.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// accessLine is the contracted access-log schema.
type accessLine struct {
	Time       string  `json:"time"`
	Model      string  `json:"model"`
	Code       int     `json:"code"`
	LatencyMS  float64 `json:"latency_ms"`
	BatchID    uint64  `json:"batch_id"`
	DeadlineMS int64   `json:"deadline_ms"`
	ID         string  `json:"id"`
}

var accessLogKeys = map[string]bool{
	"time": true, "model": true, "code": true, "latency_ms": true,
	"batch_id": true, "deadline_ms": true, "id": true,
}

// parseAccessLine decodes one line and rejects unknown or missing keys.
func parseAccessLine(t *testing.T, line string) accessLine {
	t.Helper()
	var raw map[string]any
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		t.Fatalf("access log line %q: %v", line, err)
	}
	for k := range raw {
		if !accessLogKeys[k] {
			t.Fatalf("access log line %q: unknown key %q", line, k)
		}
	}
	for _, k := range []string{"time", "model", "code", "latency_ms", "batch_id", "deadline_ms"} {
		if _, ok := raw[k]; !ok {
			t.Fatalf("access log line %q: missing key %q", line, k)
		}
	}
	var al accessLine
	if err := json.Unmarshal([]byte(line), &al); err != nil {
		t.Fatal(err)
	}
	if _, err := time.Parse(time.RFC3339Nano, al.Time); err != nil {
		t.Fatalf("access log time %q: %v", al.Time, err)
	}
	if al.LatencyMS < 0 {
		t.Fatalf("access log latency %v < 0", al.LatencyMS)
	}
	return al
}

func TestAccessLogFieldContract(t *testing.T) {
	mod := newModule(t)
	buf := &syncBuffer{}
	okBody := inferBody(t, testInput(5))
	srv, _ := newServer(t, mod, serve.Config{
		PoolSize:     1,
		AccessLog:    buf,
		MaxBodyBytes: int64(len(okBody)) + 4096,
	})
	h := srv.Handler()

	// An id-carrying body, to check the optional field round-trips.
	var withID serve.InferRequest
	if err := json.Unmarshal(okBody, &withID); err != nil {
		t.Fatal(err)
	}
	withID.ID = "req-042"
	idBody, err := json.Marshal(withID)
	if err != nil {
		t.Fatal(err)
	}
	oversized := append(bytes.Repeat([]byte(" "), 8192), okBody...)

	cases := []struct {
		name      string
		model     string
		body      []byte
		timeout   string // X-Request-Timeout header, "" = none
		wantCode  int
		wantBatch bool // batch_id must be nonzero (the request ran)
		wantID    string
	}{
		// The 200 goes first: it primes the latency EWMA that makes the
		// 1ns-budget case below fail deadline admission deterministically.
		{"ok", "tiny-resnet", okBody, "", http.StatusOK, true, ""},
		{"ok-with-id", "tiny-resnet", idBody, "", http.StatusOK, true, "req-042"},
		{"malformed-json", "tiny-resnet", []byte("{nope"), "", http.StatusBadRequest, false, ""},
		{"unknown-model", "nope", okBody, "", http.StatusNotFound, false, ""},
		{"oversized-413", "tiny-resnet", oversized, "", http.StatusRequestEntityTooLarge, false, ""},
		{"deadline-504", "tiny-resnet", okBody, "1ns", http.StatusGatewayTimeout, false, ""},
	}
	for i, tc := range cases {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v2/models/"+tc.model+"/infer", bytes.NewReader(tc.body))
		if tc.timeout != "" {
			req.Header.Set("X-Request-Timeout", tc.timeout)
		}
		h.ServeHTTP(rec, req)
		if rec.Code != tc.wantCode {
			t.Fatalf("%s: status %d, want %d", tc.name, rec.Code, tc.wantCode)
		}
		lines := buf.lines()
		if len(lines) != i+1 {
			t.Fatalf("%s: %d log lines after %d requests", tc.name, len(lines), i+1)
		}
		al := parseAccessLine(t, lines[i])
		if al.Model != tc.model {
			t.Fatalf("%s: logged model %q, want %q", tc.name, al.Model, tc.model)
		}
		if al.Code != tc.wantCode {
			t.Fatalf("%s: logged code %d, want %d", tc.name, al.Code, tc.wantCode)
		}
		if tc.wantBatch && al.BatchID == 0 {
			t.Fatalf("%s: batch_id 0 for a served request", tc.name)
		}
		if !tc.wantBatch && al.BatchID != 0 {
			t.Fatalf("%s: batch_id %d for a request that never ran", tc.name, al.BatchID)
		}
		if al.ID != tc.wantID {
			t.Fatalf("%s: logged id %q, want %q", tc.name, al.ID, tc.wantID)
		}
	}

	// Every run gets its own execution ID: sequential requests get distinct,
	// increasing IDs.
	lines := buf.lines()
	first, second := parseAccessLine(t, lines[0]), parseAccessLine(t, lines[1])
	if second.BatchID <= first.BatchID {
		t.Fatalf("batch IDs not increasing: %d then %d", first.BatchID, second.BatchID)
	}
}

// TestAccessLog429 drives the bounded queue into backpressure and checks the
// log agrees line-for-line with the client-observed outcome multiset.
func TestAccessLog429(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	writeBundles(t, dir, "tiny-cnn")
	buf := &syncBuffer{}
	// PoolSize 1 so only one delayed run can be in flight: one request waits
	// for its session, filling the depth-1 queue, and the rest of the burst
	// must answer 429. (With the auto-sized pool every burst request gets its
	// own session and nothing rejects.)
	cfg := serve.RegistryConfig{Defaults: serve.Config{
		PoolSize: 1, QueueDepth: 1,
		BreakerThreshold: -1, DrainTimeout: time.Second,
		AccessLog: buf,
	}}
	_, ts := chaosServer(t, dir, cfg, "tiny-cnn")
	body := inferBody(t, chaosInput())

	faults.Inject(faults.SiteBatcherDispatch,
		faults.OnLabel("tiny-cnn", faults.Delay(40*time.Millisecond)))

	const burst = 6
	var mu sync.Mutex
	clientCodes := map[int]int{}
	var wg sync.WaitGroup
	for c := 0; c < burst; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, _, err := chaosPost(ts, "tiny-cnn", body, nil)
			if err != nil {
				t.Errorf("transport error: %v", err)
				return
			}
			mu.Lock()
			clientCodes[status]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if clientCodes[http.StatusTooManyRequests] == 0 {
		t.Fatalf("burst produced no 429 (counts %v)", clientCodes)
	}

	// The handler logs after writing the response, so a client can observe
	// its response a beat before the line lands: poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	var lines []string
	for time.Now().Before(deadline) {
		if lines = buf.lines(); len(lines) >= burst {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(lines) != burst {
		t.Fatalf("%d log lines for %d requests", len(lines), burst)
	}
	logged := map[int]int{}
	for _, line := range lines {
		al := parseAccessLine(t, line)
		if al.Model != "tiny-cnn" {
			t.Fatalf("logged model %q", al.Model)
		}
		if al.Code == http.StatusTooManyRequests && al.BatchID != 0 {
			t.Fatalf("429 logged with batch_id %d", al.BatchID)
		}
		logged[al.Code]++
	}
	for code, n := range clientCodes {
		if logged[code] != n {
			t.Fatalf("log counted %d x %d, clients saw %d (log %v, clients %v)",
				logged[code], code, n, logged, clientCodes)
		}
	}
}
