// Scaling demo, two layers of it:
//
//  1. Kernel scaling (Section 3.1.2 / Figure 4 with real wall-clock): the
//     same blocked convolution is executed with the custom thread pool and
//     the OpenMP-style fork/join runtime at growing thread counts.
//  2. Serving scaling: a compiled engine behind the HTTP inference server,
//     hammered by concurrent clients — pooled sessions plus the dynamic
//     micro-batcher turn per-request dispatch into coalesced RunBatch calls.
//
// Whole-model scaling (tiny-resnet recompiled at each thread count, so
// block sizes are re-searched per width) is BenchmarkSessionRunScaling in
// the root package:
//
//	go run ./examples/scaling
//	go test -run '^$' -bench BenchmarkSessionRunScaling .
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/threadpool"
	"repro/pkg/neocpu"
)

func main() {
	// A mid-network ResNet convolution, blocked NCHW8c.
	const icb, ocb, regN = 8, 8, 8
	in := tensor.New(tensor.NCHW(), 1, 128, 28, 28)
	in.FillRandom(1, 1)
	wt := tensor.New(tensor.OIHW(), 128, 128, 3, 3)
	wt.FillRandom(2, 0.5)
	attrs := ops.Conv2DAttrs{OutC: 128, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	blockedIn := tensor.ToNCHWc(in, icb)
	blockedWt := tensor.PackWeights(wt, icb, ocb)

	run := func(pf ops.ParallelFor, reps int) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			ops.Conv2DNCHWc(blockedIn, blockedWt, attrs, icb, ocb, regN, ops.Epilogue{}, pf)
		}
		return time.Since(start) / time.Duration(reps)
	}

	const reps = 20
	serial := run(ops.Serial, reps)
	fmt.Printf("conv 128x28x28 -> 128, 3x3 (231 MFLOPs), serial: %v\n\n", serial.Round(time.Microsecond))
	fmt.Printf("%-8s %16s %16s %12s\n", "threads", "thread pool", "omp-style", "pool speedup")

	maxThreads := runtime.GOMAXPROCS(0)
	for n := 1; n <= maxThreads; n *= 2 {
		pool := threadpool.NewPool(n)
		tPool := run(pool.ParallelRange, reps)
		pool.Close()
		omp := threadpool.NewOMPPool(n)
		tOMP := run(omp.ParallelRange, reps)
		fmt.Printf("%-8d %16v %16v %11.2fx\n",
			n, tPool.Round(time.Microsecond), tOMP.Round(time.Microsecond),
			float64(serial)/float64(tPool))
	}

	// Many tiny regions: where fork/join overhead dominates and the pools
	// separate (the paper's OpenMP launch/suppress observation).
	fmt.Println("\n1000 tiny parallel regions (64 units of trivial work each):")
	tiny := func(pf ops.ParallelFor) time.Duration {
		var sink [64]int64
		start := time.Now()
		for r := 0; r < 1000; r++ {
			pf(64, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sink[i]++
				}
			})
		}
		return time.Since(start)
	}
	pool := threadpool.NewPool(maxThreads)
	defer pool.Close()
	omp := threadpool.NewOMPPool(maxThreads)
	fmt.Printf("  thread pool: %v\n", tiny(pool.ParallelRange).Round(time.Microsecond))
	fmt.Printf("  omp-style:   %v\n", tiny(omp.ParallelRange).Round(time.Microsecond))

	servingDemo()
}

// servingDemo scales the other axis: many concurrent requests against one
// engine. Serial sessions make each in-flight batch occupy one core, the
// pool bounds concurrency, and the micro-batcher coalesces whatever piles
// up while sessions are busy.
func servingDemo() {
	fmt.Println("\nserving: 32 concurrent clients, pooled sessions + micro-batching:")
	engine, err := neocpu.CompileGraph(models.TinyResNet(42),
		neocpu.WithOptLevel(neocpu.LevelTransformElim),
		neocpu.WithBackend(neocpu.BackendSerial),
	)
	if err != nil {
		panic(err)
	}
	defer engine.Close()
	// The compile-time execution plan is what makes pooled sessions cheap:
	// liveness analysis packs every intermediate into a few shared slots.
	ps := engine.PlanStats()
	fmt.Printf("  plan: %d values in %d shared slots, %s arena (vs %s unplanned, %.1fx), %d levels\n",
		ps.Values, ps.Slots, byteSize(ps.ArenaBytes), byteSize(ps.NaiveArenaBytes),
		float64(ps.NaiveArenaBytes)/float64(ps.ArenaBytes), ps.Levels)
	srv, err := neocpu.NewServer(engine, "tiny-resnet",
		neocpu.WithPoolSize(runtime.GOMAXPROCS(0)),
		neocpu.WithMaxBatch(8),
		neocpu.WithMaxLatency(2*time.Millisecond),
		neocpu.WithQueueDepth(128),
	)
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	in := engine.NewInput()
	in.FillRandom(7, 1)
	body, _ := json.Marshal(map[string]any{
		"inputs": []map[string]any{{
			"name": "input", "shape": in.Shape, "datatype": "FP32", "data": in.Data,
		}},
	})

	const clients = 32
	const runsEach = 4
	start := time.Now()
	var wg sync.WaitGroup
	var failed sync.Map
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < runsEach; r++ {
				resp, err := ts.Client().Post(ts.URL+"/v2/models/tiny-resnet/infer",
					"application/json", bytes.NewReader(body))
				if err != nil {
					failed.Store(c, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failed.Store(c, fmt.Errorf("status %d", resp.StatusCode))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	failed.Range(func(k, v any) bool { panic(fmt.Sprintf("client %v: %v", k, v)) })

	st := srv.Stats()
	fmt.Printf("  %d requests in %v (%.0f req/s)\n",
		st.Batch.Items, elapsed.Round(time.Millisecond),
		float64(st.Batch.Items)/elapsed.Seconds())
	fmt.Printf("  batches: %d, mean size %.2f, max %d (coalesced by the %dms window)\n",
		st.Batch.Batches, float64(st.Batch.Items)/float64(st.Batch.Batches),
		st.Batch.MaxObserved, 2)
	fmt.Printf("  pool: %d/%d sessions, %d waits, %s arena/session\n",
		st.Pool.Size, st.Pool.MaxSize, st.Pool.Waits, byteSize(st.Pool.ArenaBytesPerSession))
}

func byteSize(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
