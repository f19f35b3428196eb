// Depthwise serving test: TinyMobileNet — depthwise-separable blocks, the
// shared-block depthwise kernel — served from one pooled session to many
// concurrent clients under -race (CI runs the race detector), with every
// response checked bit-for-bit against the module's own single-lane output.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/serve"
)

func TestServeTinyMobileNetCoalesces(t *testing.T) {
	mod, err := core.Compile(models.TinyMobileNet(21), machine.IntelSkylakeC5(), core.Options{
		Level: core.OptGlobalSearch, Threads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mod.Close)

	// One session: concurrent requests must wait for it in turn.
	srv, ts := newServer(t, mod, serve.Config{PoolSize: 1, QueueDepth: 256})

	const clients = 24
	const runsEach = 2
	bodies := make([][]byte, clients)
	wants := make([][]float32, clients)
	for c := 0; c < clients; c++ {
		in := testInput(uint64(300 + c))
		bodies[c] = inferBody(t, in)
		wants[c] = append([]float32(nil), wantOutput(t, mod, in).Data...)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	url := ts.URL + "/v2/models/tiny-mobilenet/infer"
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			for r := 0; r < runsEach; r++ {
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[c]))
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
				if len(ir.Outputs) != 1 || len(ir.Outputs[0].Data) != len(wants[c]) {
					errs <- fmt.Errorf("client %d run %d: malformed outputs", c, r)
					return
				}
				for i, v := range ir.Outputs[0].Data {
					if v != wants[c][i] {
						errs <- fmt.Errorf("client %d run %d: output[%d] = %v, want %v (pooled depthwise result diverged)", c, r, i, v, wants[c][i])
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
	if st.Pool.Items != clients*runsEach {
		t.Fatalf("sessions completed %d items, want %d", st.Pool.Items, clients*runsEach)
	}
	if st.Pool.Size != 1 {
		t.Fatalf("pool grew to %d sessions, bound is 1", st.Pool.Size)
	}
	t.Logf("items=%d pool_waits=%d", st.Pool.Items, st.Pool.Waits)
}
