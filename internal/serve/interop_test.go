// Branchy-model serving tests: Inception, DenseNet and SSD plans with
// multi-node dependency levels, driven concurrently through the serving
// layer's micro-batcher. Run under -race (CI does), this exercises every
// layer of the concurrency stack at once — HTTP handlers, batch coalescing,
// pooled sessions racing for one module's kernel thread pool.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// TestServeInterOpModels hammers Inception, DenseNet and SSD compiled onto a
// 2-thread pool through the micro-batcher from many goroutines and checks
// every response bit for bit against a single-session reference run of the
// same input.
func TestServeInterOpModels(t *testing.T) {
	cases := []struct {
		name string
		mk   func(uint64) *graph.Graph
		c, h int
	}{
		{"tiny-inception", models.TinyInception, 3, 32},
		{"tiny-densenet", models.TinyDenseNet, 3, 32},
		{"tiny-ssd", models.TinySSD, 3, 64},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mod, err := core.Compile(tc.mk(11), machine.IntelSkylakeC5(), core.Options{
				Level: core.OptTransformElim, Threads: 2, Backend: machine.BackendPool,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(mod.Close)

			_, ts := newServer(t, mod, serve.Config{PoolSize: 3, MaxBatch: 4})

			// Reference outputs from a private session per distinct input.
			ref, err := mod.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			const distinct = 4
			want := make([][][]float32, distinct)
			for i := 0; i < distinct; i++ {
				in := tensor.New(tensor.NCHW(), 1, tc.c, tc.h, tc.h)
				in.FillRandom(uint64(i)+100, 1)
				outs, err := ref.Run(context.Background(), in)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = make([][]float32, len(outs))
				for j, o := range outs {
					want[i][j] = append([]float32(nil), o.Data...)
				}
			}

			const clients, perClient = 8, 3
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			url := ts.URL + "/v2/models/" + mod.Graph.Name + "/infer"
			for c := 0; c < clients; c++ {
				c := c
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < perClient; r++ {
						which := (c + r) % distinct
						in := tensor.New(tensor.NCHW(), 1, tc.c, tc.h, tc.h)
						in.FillRandom(uint64(which)+100, 1)
						body, err := json.Marshal(serve.InferRequest{
							Inputs: []serve.InferTensor{{Name: "input", Shape: in.Shape, Datatype: "FP32", Data: in.Data}},
						})
						if err != nil {
							errCh <- err
							return
						}
						resp, err := http.Post(url, "application/json", bytes.NewReader(body))
						if err != nil {
							errCh <- err
							return
						}
						var ir serve.InferResponse
						err = json.NewDecoder(resp.Body).Decode(&ir)
						resp.Body.Close()
						if err != nil {
							errCh <- err
							return
						}
						if resp.StatusCode != http.StatusOK {
							errCh <- fmt.Errorf("status %d", resp.StatusCode)
							return
						}
						if len(ir.Outputs) != len(want[which]) {
							errCh <- fmt.Errorf("%d outputs, want %d", len(ir.Outputs), len(want[which]))
							return
						}
						for j, o := range ir.Outputs {
							if len(o.Data) != len(want[which][j]) {
								errCh <- fmt.Errorf("output %d length %d, want %d", j, len(o.Data), len(want[which][j]))
								return
							}
							for k := range o.Data {
								if math.Float32bits(o.Data[k]) != math.Float32bits(want[which][j][k]) {
									errCh <- fmt.Errorf("output %d[%d] = %#x, want %#x (batched result diverged)", j, k, math.Float32bits(o.Data[k]), math.Float32bits(want[which][j][k]))
									return
								}
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
		})
	}
}
