// Error-surface contract tests: every non-2xx response the server emits
// must carry a kserve-v2-style JSON error body ({"error": "..."}) with
// Content-Type application/json — clients branch on status codes but log
// and surface the error field, so a bare text/plain body is a regression.
package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
)

// TestErrorResponsesAreKserveJSON drives every 4xx/5xx path reachable
// without timing games and asserts the body contract.
func TestErrorResponsesAreKserveJSON(t *testing.T) {
	defer faults.Reset()
	mod := newModule(t)
	_, ts := newServer(t, mod, serve.Config{
		QueueDepth:   4,
		DrainTimeout: time.Second,
	})
	goodBody := inferBody(t, testInput(1))

	badShape, err := json.Marshal(serve.InferRequest{Inputs: []serve.InferTensor{{
		Name: "input", Shape: []int{1, 1, 2, 2}, Datatype: "FP32", Data: []float32{1, 2, 3, 4},
	}}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		headers    map[string]string
		body       []byte
		armFault   func()
		wantStatus int
	}{
		{
			name: "unknown model infer is 404", method: "POST",
			path: "/v2/models/no-such-model/infer", body: goodBody,
			wantStatus: http.StatusNotFound,
		},
		{
			name: "unknown model metadata is 404", method: "GET",
			path:       "/v2/models/no-such-model",
			wantStatus: http.StatusNotFound,
		},
		{
			name: "malformed JSON is 400", method: "POST",
			path: "/v2/models/tiny-resnet/infer", body: []byte(`{"inputs":[`),
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "wrong input shape is 400", method: "POST",
			path: "/v2/models/tiny-resnet/infer", body: badShape,
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "bad X-Request-Timeout is 400", method: "POST",
			path: "/v2/models/tiny-resnet/infer", body: goodBody,
			headers:    map[string]string{"X-Request-Timeout": "soon"},
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "negative X-Request-Timeout is 400", method: "POST",
			path: "/v2/models/tiny-resnet/infer", body: goodBody,
			headers:    map[string]string{"X-Request-Timeout": "-5ms"},
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "oversized body is 413", method: "POST",
			path:       "/v2/models/tiny-resnet/infer",
			body:       append(goodBody[:len(goodBody)-1], []byte(`,"id":"`+strings.Repeat("x", 512<<10)+`"}`)...),
			wantStatus: http.StatusRequestEntityTooLarge,
		},
		{
			// The derived cap (~160 KiB here) counts the whole body, not
			// just the first JSON value in it.
			name: "valid object padded past the cap is 413", method: "POST",
			path:       "/v2/models/tiny-resnet/infer",
			body:       append(bytes.Clone(goodBody), bytes.Repeat([]byte(" "), 512<<10)...),
			wantStatus: http.StatusRequestEntityTooLarge,
		},
		{
			name: "trailing garbage after the object is 400", method: "POST",
			path:       "/v2/models/tiny-resnet/infer",
			body:       append(bytes.Clone(goodBody), "garbage"...),
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "expired deadline budget is 504", method: "POST",
			path: "/v2/models/tiny-resnet/infer", body: goodBody,
			headers:    map[string]string{"X-Request-Timeout": "15ms"},
			armFault:   func() { faults.Inject(faults.SiteBatcherDispatch, faults.Delay(60*time.Millisecond)) },
			wantStatus: http.StatusGatewayTimeout,
		},
		{
			name: "recovered execution panic is 500", method: "POST",
			path: "/v2/models/tiny-resnet/infer", body: goodBody,
			armFault:   func() { faults.Inject(faults.SiteSessionRun, faults.Panic("test panic")) },
			wantStatus: http.StatusInternalServerError,
		},
		{
			name: "unloadable model unload is 404", method: "POST",
			path:       "/v2/repository/models/no-such-model/unload",
			wantStatus: http.StatusNotFound,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faults.Reset()
			if tc.armFault != nil {
				tc.armFault()
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			for k, v := range tc.headers {
				req.Header.Set(k, v)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not valid JSON: %v", err)
			}
			if body.Error == "" {
				t.Fatal("error body has empty error field")
			}
		})
	}
}

// TestMaxBodyBytesConfigurable: WithMaxBodyBytes-style explicit caps must
// override the signature-derived default, rejecting otherwise-valid bodies
// with a typed 413.
func TestMaxBodyBytesConfigurable(t *testing.T) {
	mod := newModule(t)
	s, err := serve.New(mod, "", serve.Config{
		MaxBodyBytes: 256,
		DrainTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	body := inferBody(t, testInput(1)) // far larger than 256 bytes
	resp, err := ts.Client().Post(ts.URL+"/v2/models/tiny-resnet/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || !strings.Contains(eb.Error, "256") {
		t.Fatalf("413 body %+v err %v, want error naming the 256-byte limit", eb, err)
	}
}
