// Command neocpu-serve serves CNN inference over HTTP with pooled sessions
// and dynamic micro-batching, speaking a kserve-v2-style JSON protocol. It
// runs in one of two modes:
//
// Single-model: compile a named model in-process and serve it.
//
//	neocpu-serve -model resnet-18 -addr :8000 -pool 4 -max-batch 8
//
// Repository: serve a directory of precompiled artifact bundles
// (neocpu-compile -o). Nothing is searched or packed at boot — bundles
// deserialize straight into executable modules, all models share one arena
// budget with LRU eviction of idle models, and the repository endpoints
// load/unload models live.
//
//	neocpu-serve -repo ./models -arena-budget 268435456 -addr :8000
//
// Endpoints:
//
//	GET  /v2/health/live, /v2/health/ready
//	GET  /v2/models/<model>          metadata
//	GET  /v2/models/<model>/ready
//	POST /v2/models/<model>/infer    {"inputs":[{"name":"input","shape":[1,3,H,W],"datatype":"FP32","data":[...]}]}
//	GET  /v2/models/<model>/stats    per-model pool + batcher counters
//	GET  /v2/stats                   counters (single: one model; repo: all)
//	GET  /v2/repository/index        every model's lifecycle state
//	POST /v2/repository/models/<model>/load
//	POST /v2/repository/models/<model>/unload
//
// By default each pooled session runs serially (one core per in-flight
// batch) so the pool scales throughput across cores; pass -threads N > 1 to
// instead parallelize each single inference over the shared kernel pool.
//
// Besides the registry models (the paper's 15 plus mobilenet-v1), the tiny-*
// test models (tiny-cnn, tiny-resnet, tiny-densenet, tiny-inception,
// tiny-mobilenet, tiny-ssd, tiny-vgg) are accepted for fast smoke tests.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/threadpool"
	"repro/pkg/neocpu"
)

// tinyBuilders are the non-registry smoke-test models.
var tinyBuilders = map[string]func(uint64) *graph.Graph{
	"tiny-cnn":       models.TinyCNN,
	"tiny-resnet":    models.TinyResNet,
	"tiny-densenet":  models.TinyDenseNet,
	"tiny-inception": models.TinyInception,
	"tiny-mobilenet": models.TinyMobileNet,
	"tiny-ssd":       models.TinySSD,
	"tiny-vgg":       models.TinyVGG,
}

func main() {
	model := flag.String("model", "resnet-18", "model name (registry incl. mobilenet-v1, or tiny-cnn/tiny-resnet/tiny-densenet/tiny-inception/tiny-mobilenet/tiny-ssd/tiny-vgg)")
	addr := flag.String("addr", ":8000", "listen address")
	levelName := flag.String("level", "global-search", "baseline-nchw|layout-opt|transform-elim|global-search")
	threads := flag.Int("threads", 1, "kernel threads per inference (1 = serial sessions, pool scales across cores)")
	poolSize := flag.Int("pool", 0, "max pooled sessions, one arena each (0 = auto from planned arena bytes)")
	maxBatch := flag.Int("max-batch", 8, "max requests coalesced per dispatch")
	maxLatency := flag.Duration("max-latency", 2*time.Millisecond, "longest wait for batch stragglers (0 = dispatch immediately)")
	queueDepth := flag.Int("queue", 0, "admission queue depth (0 = 4x max-batch); beyond it requests get 429")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "default per-request deadline budget when the client sends no X-Request-Timeout; expiry answers 504 (0 = no server-side budget)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "how long shutdown/unload lets in-flight batches finish before cancelling them")
	int8Mode := flag.Bool("int8", false, "serve quantized INT8 inference")
	seed := flag.Uint64("seed", 42, "synthetic-weight seed")
	repoDir := flag.String("repo", "", "serve a model repository: directory of .neob bundles (neocpu-compile -o); ignores -model/-level/-int8/-seed")
	arenaBudget := flag.Int("arena-budget", 0, "repository mode: total session-arena bytes across loaded models, LRU-evicting idle models past it (0 = unlimited)")
	accessLog := flag.String("access-log", "", "write one JSON line per inference request to this file (\"-\" = stdout)")
	flag.Parse()

	logW, logClose, err := openAccessLog(*accessLog)
	if err != nil {
		fatal(err)
	}
	defer logClose()

	if *repoDir != "" {
		serveRepository(*repoDir, *addr, *arenaBudget, *threads, *poolSize, *maxBatch,
			*maxLatency, *queueDepth, *requestTimeout, *drainTimeout, logW)
		return
	}

	level, err := neocpu.ParseLevel(*levelName)
	if err != nil {
		fatal(err)
	}
	copts := []neocpu.Option{
		neocpu.WithOptLevel(level),
		neocpu.WithSeed(*seed),
	}
	if *threads <= 1 {
		// Serial sessions: each in-flight batch occupies exactly one core,
		// so PoolSize sessions genuinely scale to PoolSize cores.
		copts = append(copts, neocpu.WithBackend(neocpu.BackendSerial))
	} else {
		copts = append(copts, neocpu.WithThreads(*threads))
	}
	if *int8Mode {
		copts = append(copts, neocpu.WithInt8())
	}

	fmt.Printf("compiling %s at %v...\n", *model, level)
	start := time.Now()
	var engine *neocpu.Engine
	if build, ok := tinyBuilders[*model]; ok {
		engine, err = neocpu.CompileGraph(build(*seed), copts...)
	} else {
		engine, err = neocpu.Compile(*model, copts...)
	}
	if err != nil {
		fatal(err)
	}
	defer engine.Close()
	fmt.Printf("compiled in %v; input shape %v\n", time.Since(start).Round(time.Millisecond), engine.InputShape())

	sopts := []neocpu.ServeOption{
		neocpu.WithMaxBatch(*maxBatch),
		neocpu.WithMaxLatency(*maxLatency),
		neocpu.WithRequestTimeout(*requestTimeout),
		neocpu.WithDrainTimeout(*drainTimeout),
	}
	if logW != nil {
		sopts = append(sopts, neocpu.WithAccessLog(logW))
	}
	poolLabel := "auto"
	if *poolSize > 0 {
		sopts = append(sopts, neocpu.WithPoolSize(*poolSize))
		poolLabel = fmt.Sprint(*poolSize)
	}
	if *queueDepth > 0 {
		sopts = append(sopts, neocpu.WithQueueDepth(*queueDepth))
	}

	ps := engine.PlanStats()
	fmt.Printf("plan: %d values in %d slots, %d KiB arena/session (%.1fx vs unplanned), %d levels\n",
		ps.Values, ps.Slots, ps.ArenaBytes/1024,
		float64(ps.NaiveArenaBytes)/float64(ps.ArenaBytes), ps.Levels)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("serving %s on %s (pool=%s max-batch=%d max-latency=%v)\n",
		*model, *addr, poolLabel, *maxBatch, *maxLatency)
	if err := neocpu.Serve(ctx, *addr, engine, *model, sopts...); err != nil {
		fatal(err)
	}
	fmt.Println("shut down")
}

// serveRepository boots the repository mode: every bundle in dir is loaded
// at startup (budget permitting), and the repository endpoints load/unload
// models live afterwards.
func serveRepository(dir, addr string, arenaBudget, threads, poolSize, maxBatch int,
	maxLatency time.Duration, queueDepth int, requestTimeout, drainTimeout time.Duration,
	accessLog io.Writer) {
	defaults := serve.Config{
		PoolSize:       poolSize,
		MaxBatch:       maxBatch,
		MaxLatency:     maxLatency,
		RequestTimeout: requestTimeout,
		DrainTimeout:   drainTimeout,
		AccessLog:      accessLog,
	}
	if maxLatency == 0 {
		defaults.MaxLatency = serve.NoLatency
	}
	if requestTimeout == 0 {
		defaults.RequestTimeout = serve.NoTimeout
	}
	if queueDepth > 0 {
		defaults.QueueDepth = queueDepth
	}
	loadOpts := core.Options{Threads: 1, Backend: machine.BackendSerial}
	if threads > 1 {
		// All loaded models borrow one kernel pool, so N models do not stack
		// N×threads worker goroutines.
		shared := threadpool.NewPool(threads)
		defer shared.Close()
		loadOpts = core.Options{Threads: threads, Backend: machine.BackendPool, SharedPool: shared}
	}
	reg, err := serve.NewRegistry(
		&serve.DirSource{Dir: dir, Resolve: models.ResolveGraph},
		serve.RegistryConfig{ArenaBudget: arenaBudget, Defaults: defaults, LoadOptions: loadOpts},
	)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(reg.Index()))
	for _, m := range reg.Index() {
		names = append(names, m.Name)
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("no %s bundles in %s (produce them with neocpu-compile -o)", serve.BundleExt, dir))
	}
	fmt.Printf("repository %s: %d bundle(s): %v\n", dir, len(names), names)
	for _, name := range names {
		start := time.Now()
		if err := reg.Load(name); err != nil {
			// Over-budget boots leave the overflow models available for
			// explicit loads (which evict someone idle) instead of failing.
			fmt.Printf("  %-20s not loaded: %v\n", name, err)
			continue
		}
		st, _ := reg.ModelStatsFor(name)
		fmt.Printf("  %-20s loaded in %v (%d KiB arena/session, pool<=%d)\n",
			name, time.Since(start).Round(time.Millisecond),
			st.Pool.ArenaBytesPerSession/1024, st.Pool.MaxSize)
	}

	srv, err := serve.NewRepository(reg)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	budgetLabel := "unlimited"
	if arenaBudget > 0 {
		budgetLabel = fmt.Sprintf("%d KiB", arenaBudget/1024)
	}
	fmt.Printf("serving repository on %s (arena budget %s)\n", addr, budgetLabel)
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case <-ctx.Done():
		// Graceful handoff: stop admission (readiness goes false so load
		// balancers route away), let in-flight requests finish under the
		// HTTP shutdown grace, then tear the registry down.
		fmt.Println("draining...")
		srv.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fatal(err)
		}
		fmt.Println("shut down")
	case err := <-errc:
		fatal(err)
	}
}

// openAccessLog resolves the -access-log flag: "" disables, "-" is stdout,
// anything else appends to the named file.
func openAccessLog(path string) (io.Writer, func(), error) {
	switch path {
	case "":
		return nil, func() {}, nil
	case "-":
		return os.Stdout, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("access log: %w", err)
	}
	return f, func() { f.Close() }, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neocpu-serve:", err)
	os.Exit(1)
}
