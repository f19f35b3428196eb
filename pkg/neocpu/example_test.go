package neocpu_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/models"
	"repro/pkg/neocpu"
)

// ExampleCompile compiles a registry model for a preset CPU target. The
// predict-only option skips weight materialization — the engine reports
// compilation results and predicted latency but cannot execute — which keeps
// the example fast; drop it to run real inference.
func ExampleCompile() {
	engine, err := neocpu.Compile("mobilenet-v1",
		neocpu.WithTarget("intel-skylake"),
		neocpu.WithOptLevel(neocpu.LevelGlobalSearch),
		neocpu.WithPredictOnly(),
	)
	if err != nil {
		log.Fatal(err)
	}
	before, after := engine.Stats()
	fmt.Println("level:", engine.Level())
	fmt.Println("input:", engine.InputShape())
	fmt.Println("convolutions:", after.Convs)
	fmt.Println("graph shrank:", after.Nodes < before.Nodes)
	// Output:
	// level: global-search
	// input: [1 3 224 224]
	// convolutions: 27
	// graph shrank: true
}

// ExampleEngine_NewSession runs repeated inference through a Session: the
// arena allocated at session creation is reused across calls, so
// steady-state Run performs no per-node allocation. Engines are safe to
// share; create one Session per goroutine.
func ExampleEngine_NewSession() {
	engine, err := neocpu.CompileGraph(models.TinyMobileNet(42),
		neocpu.WithTarget("intel-skylake"),
		neocpu.WithThreads(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	sess, err := engine.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	img := engine.NewInput()
	img.FillRandom(7, 1)
	outs, err := sess.Run(context.Background(), img)
	if err != nil {
		log.Fatal(err)
	}
	var sum float32
	for _, p := range outs[0].Data {
		sum += p
	}
	fmt.Println("classes:", len(outs[0].Data))
	fmt.Printf("probabilities sum to %.2f\n", sum)
	fmt.Println("arena is bounded:", sess.ArenaBytes() > 0)
	// Output:
	// classes: 10
	// probabilities sum to 1.00
	// arena is bounded: true
}

// ExampleNewServer embeds the serving stack — pooled sessions, bounded
// admission, the kserve-v2-style protocol — into an existing HTTP
// server. cmd/neocpu-serve wraps the same handler with listening and
// graceful shutdown.
func ExampleNewServer() {
	engine, err := neocpu.CompileGraph(models.TinyMobileNet(42),
		neocpu.WithThreads(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	srv, err := neocpu.NewServer(engine, "tiny-mobilenet",
		neocpu.WithPoolSize(2),
		neocpu.WithQueueDepth(8),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v2/models/tiny-mobilenet/ready")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fmt.Println("status:", resp.StatusCode)
	fmt.Println("ready:", strings.Contains(string(body), `"ready":true`))
	// Output:
	// status: 200
	// ready: true
}
