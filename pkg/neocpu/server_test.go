package neocpu

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func serveEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := CompileGraph(smallCNN(5),
		WithOptLevel(LevelTransformElim), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestServerFacade(t *testing.T) {
	e := serveEngine(t)
	srv, err := NewServer(e, "", WithPoolSize(1), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Model() != "small-cnn" {
		t.Fatalf("defaulted model name %q, want graph name", srv.Model())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	in := e.NewInput()
	in.FillRandom(3, 1)
	want, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(map[string]any{
		"inputs": []map[string]any{{
			"name": "input", "shape": in.Shape, "datatype": "FP32", "data": in.Data,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v2/models/small-cnn/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var ir struct {
		Outputs []struct {
			Data []float32 `json:"data"`
		} `json:"outputs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.Outputs) != 1 || len(ir.Outputs[0].Data) != len(want[0].Data) {
		t.Fatalf("malformed outputs: %+v", ir)
	}
	for i, v := range ir.Outputs[0].Data {
		if v != want[0].Data[i] {
			t.Fatalf("served output[%d] = %v, want %v", i, v, want[0].Data[i])
		}
	}
	if st := srv.Stats(); st.Pool.Items != 1 || st.Pool.Size != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestServerRefusesBadEngines(t *testing.T) {
	if _, err := NewServer(nil, "m"); !errors.Is(err, ErrBadOption) {
		t.Fatalf("nil engine: %v, want ErrBadOption", err)
	}
	pred, err := Compile("resnet-18", WithOptLevel(LevelTransformElim), WithPredictOnly())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(pred, "m"); !errors.Is(err, ErrPredictOnly) {
		t.Fatalf("predict-only engine: %v, want ErrPredictOnly", err)
	}
}

// TestServeOptionErrorPaths is the table-driven sweep over every serving
// option's invalid-input branch.
func TestServeOptionErrorPaths(t *testing.T) {
	e := serveEngine(t)
	cases := []struct {
		name string
		opt  ServeOption
		ok   bool
	}{
		{"pool-zero", WithPoolSize(0), false},
		{"pool-negative", WithPoolSize(-3), false},
		{"pool-valid", WithPoolSize(1), true},
		{"queue-zero", WithQueueDepth(0), false},
		{"queue-negative", WithQueueDepth(-8), false},
		{"queue-valid", WithQueueDepth(64), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, err := NewServer(e, "", WithPoolSize(1), c.opt)
			if c.ok {
				if err != nil {
					t.Fatalf("valid option rejected: %v", err)
				}
				srv.Close()
				return
			}
			if !errors.Is(err, ErrBadOption) {
				t.Fatalf("got %v, want ErrBadOption", err)
			}
		})
	}
}
