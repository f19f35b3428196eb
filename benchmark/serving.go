package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/pkg/neocpu"
)

// The serving workloads: an in-process server on loopback TCP, driven by the
// benchmark's generator through T lanes.

const (
	servingInputs = 16
	servingWarmup = 32
	// servingSetups is how many times set-up is repeated for setup_s. The
	// tiny models set up in tens of milliseconds, so more repetitions than
	// on the -b1 workloads are affordable and needed for a steady median.
	servingSetups = 7
	steadyModel   = "tiny-mobilenet"
)

// churnModels are the six repository models in popularity order: rank k is
// requested with probability proportional to 1/k. The models differ in cost
// (a hot request takes 5.5 ms on tiny-mobilenet and 16 ms on tiny-inception),
// so the order decides where the percentiles fall in the mix. This one puts
// the median deep inside the most popular model's requests and p90 deep
// inside the slowest model's, which is second in popularity; with the
// slowest model at a share near 10% instead, p90 would flip between two
// models' latencies from seed to seed.
var churnModels = []string{
	"tiny-resnet", "tiny-inception", "tiny-vgg", "tiny-mobilenet", "tiny-ssd", "tiny-densenet",
}

// churnResident is how many of the six the arena budget is sized for.
const churnResident = 3

// listener is an http.Server on an ephemeral loopback port.
type listener struct {
	hs   *http.Server
	base string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its goroutine.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.done
}

// statusWriter remembers the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// spanMiddleware is the benchmark's timing wrapper around Server.Handler():
// one span per request the generator tagged, parented to the client's
// round-trip span and sharing its request id. Answers other than 200 (a
// `503 unloaded` takes microseconds) get their own name, so serve.handler_ms
// is the time of requests that were actually served.
func spanMiddleware(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		name := "serve.handler"
		if sw.code != http.StatusOK {
			name = "serve.handler_refused"
		}
		rec.add(name, r.Header.Get("X-Bench-Id"), parent, start, time.Now())
	})
}

// servingEnv is one finished serving set-up.
type servingEnv struct {
	ln      *listener
	gen     *generator
	closers []func()
	// poolWaits reads the pool-exhaustion counter the program exports; reg
	// is set on repo-churn only.
	poolWaits func() float64
	reg       *serve.Registry
	warm      *genStats
}

func (e *servingEnv) close() {
	if e.gen != nil {
		e.gen.close()
	}
	if e.ln != nil {
		e.ln.close()
	}
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

func toRefs(outs []*tensor.Tensor) []refTensor {
	refs := make([]refTensor, len(outs))
	for i, o := range outs {
		bits := make([]uint32, len(o.Data))
		for j, v := range o.Data {
			bits[j] = math.Float32bits(v)
		}
		refs[i] = refTensor{shape: append([]int(nil), o.Shape...), bits: bits}
	}
	return refs
}

// addReferences gives a generator model its request bodies and, from a
// direct Session.Run of the same inputs on the same engine, the outputs
// every response must match bit for bit.
func addReferences(gm *genModel, eng *neocpu.Engine, seed int64) error {
	sess, err := eng.NewSession()
	if err != nil {
		return err
	}
	for _, in := range seededInputs(seed, servingInputs, eng.InputShape()) {
		outs, err := sess.Run(context.Background(), in)
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", gm.name, err)
		}
		if err := gm.addInput(in.Shape, in.Data, toRefs(outs)); err != nil {
			return err
		}
	}
	return nil
}

func tinyEngine(name string) (*neocpu.Engine, error) {
	g, err := models.BuildAny(name, weightSeed)
	if err != nil {
		return nil, err
	}
	return neocpu.CompileGraph(g, neocpu.WithThreads(1))
}

// warmUp sends a burst of requests through every lane so connections, pool
// sessions and the server's latency estimate exist before timing starts.
func (e *servingEnv) warmUp(seed int64) {
	e.warm = e.gen.openLoop(makeSchedule(seed, servingWarmup, 1e6, len(e.gen.models), servingInputs))
}

// setupSteady builds serve-steady: tiny-mobilenet compiled with one kernel
// thread behind neocpu.NewServer at library defaults.
func setupSteady(cfg config, rec *recorder) (*servingEnv, error) {
	env := &servingEnv{}
	eng, err := tinyEngine(steadyModel)
	if err != nil {
		return nil, err
	}
	env.closers = append(env.closers, eng.Close)
	srv, err := neocpu.NewServer(eng, steadyModel)
	if err != nil {
		env.close()
		return nil, err
	}
	env.closers = append(env.closers, srv.Close)
	env.poolWaits = func() float64 { return float64(srv.Stats().Pool.Waits) }
	h := srv.Handler()
	if rec != nil {
		h = spanMiddleware(rec, h)
	}
	if env.ln, err = listen(h); err != nil {
		env.close()
		return nil, err
	}
	gm := &genModel{name: steadyModel}
	gm.serveAt(env.ln.base)
	if err := addReferences(gm, eng, cfg.seed); err != nil {
		env.close()
		return nil, err
	}
	env.gen = newGenerator(sizingT(), []*genModel{gm}, false)
	env.warmUp(cfg.seed)
	return env, nil
}

// setupChurn builds repo-churn: six bundles written with SaveBundle, served
// by a repository whose arena budget holds three of them.
func setupChurn(cfg config, rec *recorder) (*servingEnv, error) {
	env := &servingEnv{}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "repo-")
	if err != nil {
		return nil, err
	}
	env.closers = append(env.closers, func() { os.RemoveAll(dir) })
	fail := func(err error) (*servingEnv, error) {
		env.close()
		return nil, err
	}

	gms := make([]*genModel, len(churnModels))
	for i, name := range churnModels {
		eng, err := tinyEngine(name)
		if err != nil {
			return fail(err)
		}
		gms[i] = &genModel{name: name}
		err = addReferences(gms[i], eng, cfg.seed)
		if err == nil {
			err = writeBundle(eng, filepath.Join(dir, name+serve.BundleExt))
		}
		eng.Close()
		if err != nil {
			return fail(err)
		}
	}

	source := &serve.DirSource{Dir: dir, Resolve: models.ResolveGraph}
	loadOpts := core.Options{Threads: 1, Backend: machine.BackendSerial}
	budget, err := churnBudget(source, loadOpts)
	if err != nil {
		return fail(err)
	}
	reg, err := serve.NewRegistry(source, serve.RegistryConfig{ArenaBudget: budget, LoadOptions: loadOpts})
	if err != nil {
		return fail(err)
	}
	srv, err := serve.NewRepository(reg)
	if err != nil {
		reg.Close()
		return fail(err)
	}
	env.closers = append(env.closers, srv.Close)
	env.reg = reg
	env.poolWaits = func() float64 {
		// Pools die with their model: waits of evicted pools are lost.
		var waits uint64
		for _, ms := range reg.Stats().Models {
			waits += ms.Pool.Waits
		}
		return float64(waits)
	}
	for _, name := range churnModels[:churnResident] {
		if err := reg.Load(name); err != nil {
			return fail(fmt.Errorf("initial load of %s: %w", name, err))
		}
	}
	h := srv.Handler()
	if rec != nil {
		h = spanMiddleware(rec, h)
	}
	if env.ln, err = listen(h); err != nil {
		return fail(err)
	}
	for _, gm := range gms {
		gm.serveAt(env.ln.base)
	}
	env.gen = newGenerator(sizingT(), gms, true)
	env.warmUp(cfg.seed)
	return env, nil
}

func writeBundle(eng *neocpu.Engine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eng.SaveBundle(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// churnBudget asks a budget-less registry what each model reserves (pool
// bound times planned arena, the registry's own rule) and returns the sum of
// the churnResident largest reservations: any three of the six always fit,
// and the popular models cannot all stay resident.
func churnBudget(source serve.ModelSource, loadOpts core.Options) (int, error) {
	reg, err := serve.NewRegistry(source, serve.RegistryConfig{LoadOptions: loadOpts})
	if err != nil {
		return 0, err
	}
	defer reg.Close()
	for _, name := range churnModels {
		if err := reg.Load(name); err != nil {
			return 0, fmt.Errorf("sizing load of %s: %w", name, err)
		}
	}
	var reserved []int
	for _, st := range reg.Index() {
		reserved = append(reserved, st.ArenaReservedBytes)
	}
	if len(reserved) != len(churnModels) {
		return 0, errors.New("repository index does not list the six bundles")
	}
	sort.Sort(sort.Reverse(sort.IntSlice(reserved)))
	budget := 0
	for _, r := range reserved[:churnResident] {
		budget += r
	}
	return budget, nil
}

type servingSpec struct {
	setup   func(config, *recorder) (*servingEnv, error)
	rate    float64
	limitMS float64
	nModels int
	// traceModel is the model whose compile and operators the traced pass
	// attributes (repo-churn: the most popular of the six).
	traceModel string
}

var servingSpecs = map[string]servingSpec{
	wlSteady: {setupSteady, steadyRate, steadyLimitMS, 1, steadyModel},
	wlChurn:  {setupChurn, churnRate, churnLimitMS, len(churnModels), churnModels[0]},
}

func runServing(cfg config) (*runResult, error) {
	spec := servingSpecs[cfg.workload]
	res := cfg.newResult()
	m := res.Metrics
	if cfg.trace {
		return res, traceServing(cfg, spec, res)
	}

	var env *servingEnv
	var setups []float64
	for i := 0; i < cfg.setups(servingSetups); i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = spec.setup(cfg, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		res.count(env.warm)
	}
	defer env.close()

	// Phase A: open loop at the fixed rate. Phase B: closed loop, T callers.
	secondsA := cfg.seconds * openLoopShare
	n := max(int(spec.rate*secondsA), 20)
	a := env.gen.openLoop(makeSchedule(cfg.seed, n, spec.rate, spec.nModels, servingInputs))
	res.count(a)
	b := env.gen.closedLoop(makeSchedule(cfg.seed+1, 4096, 1, spec.nModels, servingInputs), cfg.duration()-time.Duration(secondsA*float64(time.Second)))
	res.count(b)

	lat := a.latenciesMS()
	m.setN("setup_s", median(setups), len(setups))
	m.setN("latency_p50_ms", bestChunk(lat, chunks, median, false), len(lat))
	m.setN("latency_p90_ms", bestChunk(lat, chunks, p90, false), len(lat))
	m.setN("latency_p99_ms", percentile(sortedCopy(lat), 0.99), len(lat))
	capacity, windows := b.throughput(time.Second)
	m.setN("throughput_ips", capacity, windows)
	if cfg.workload == wlSteady {
		m.setN("saturation_rps", capacity, windows)
	}
	m.setN("slo_miss_frac", a.missFrac(spec.limitMS), len(lat))
	res.noteWholeRun(lat)
	res.noteOverload(a, spec.limitMS)
	return res, res.finish()
}

// traceServing is the traced pass of a serving workload: the traced model's
// compile and operators attributed as on the -b1 workloads, then an
// open-loop phase with the handler middleware installed and the program's
// own counters differenced around it.
func traceServing(cfg config, spec servingSpec, res *runResult) error {
	rec := newRecorder()
	m := res.Metrics
	mod, err := traceCompile(rec, m, registryModel(spec.traceModel), 1)
	if err != nil {
		return err
	}
	defer mod.Close()
	if err := artifactRoundTrip(rec, m, mod); err != nil {
		return err
	}
	dispatchCost(m, sizingT())
	if err := traceOperators(rec, res, mod, cfg); err != nil {
		return err
	}

	env, err := spec.setup(cfg, rec)
	if err != nil {
		return err
	}
	defer env.close()
	res.count(env.warm)

	// An untraced open-loop slice first, for trace.overhead_frac: until the
	// generator is handed the recorder it sends no span headers, and the
	// middleware stands aside.
	quarter := max(int(spec.rate*cfg.seconds/4), 20)
	plain := env.gen.openLoop(makeSchedule(cfg.seed+2, quarter, spec.rate, spec.nModels, servingInputs))
	res.count(plain)
	env.gen.rec = rec

	client := &http.Client{}
	defer client.CloseIdleConnections()
	before, _, err := scrape(client, env.ln.base)
	if err != nil {
		return err
	}
	waitsBefore := env.poolWaits()
	var evictBefore uint64
	if env.reg != nil {
		evictBefore = env.reg.Evictions()
	}
	n := max(int(spec.rate*cfg.seconds/2), 20)
	a := env.gen.openLoop(makeSchedule(cfg.seed, n, spec.rate, spec.nModels, servingInputs))
	res.count(a)
	after, scrapeTime, err := scrape(client, env.ln.base)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	per := func(sum, count string) float64 {
		if c := delta(count); c > 0 {
			return delta(sum) / c
		}
		return 0
	}

	spans := rec.snapshot()
	handler := spansNamed(spans, "serve.handler")
	// The transport is the self time of a round trip: what is left of it
	// outside the handler span it caused.
	self := selfTimes(spans)
	var transport []float64
	for _, s := range spans {
		if s.Name == "net.round_trip" {
			transport = append(transport, ms(self[s.ID]))
		}
	}
	queueWait := per("neocpu_queue_wait_seconds_sum", "neocpu_queue_wait_seconds_count") * 1000
	batchExec := per("neocpu_batch_duration_seconds_sum", "neocpu_batch_duration_seconds_count") * 1000
	m.setN("serve.handler_ms", median(handler), len(handler))
	m.setN("serve.queue_wait_ms", queueWait, int(delta("neocpu_queue_wait_seconds_count")))
	m.setN("serve.batch_exec_ms", batchExec, int(delta("neocpu_batch_duration_seconds_count")))
	m.set("serve.batch_size_mean", per("neocpu_batch_size_sum", "neocpu_batch_size_count"))
	// A self time: what the handler spent outside the queue and the batch,
	// which is request decode, response encode and routing.
	m.set("serve.codec_ms", mean(handler)-queueWait-batchExec)
	m.set("serve.pool_waits", env.poolWaits()-waitsBefore)
	m.set("serve.session_busy_frac", delta("neocpu_batch_duration_seconds_sum")/(a.elapsed.Seconds()*float64(sizingT())))
	m.set("serve.loads", float64(a.loads))
	var evictions uint64
	if env.reg != nil {
		evictions = env.reg.Evictions() - evictBefore
	}
	m.set("serve.evictions", float64(evictions))
	m.set("serve.cold_frac", float64(a.cold)/float64(len(a.samples)))
	m.setN("serve.load_call_ms", median(durationsMS(a.loadCall)), len(a.loadCall))
	m.set("serve.retries_409", float64(a.retries409))
	m.set("metrics.scrape_ms", ms(scrapeTime))
	m.setN("net.transport_ms", median(transport), len(transport))
	m.setN("loadgen.lateness_p99_ms", percentile(sortedCopy(a.latenessMS()), 0.99), len(a.samples))
	m.set("loadgen.sent", float64(a.sent))
	m.set("loadgen.ok", float64(a.ok))
	m.set("loadgen.http_429", float64(a.http429))
	m.set("loadgen.http_503", float64(a.http503))
	m.set("loadgen.http_504", float64(a.http504))
	m.set("loadgen.http_5xx", float64(a.h5xx))
	m.set("loadgen.mismatch", float64(a.mismatch))
	if p := median(plain.latenciesMS()); p > 0 {
		// Overrides the kernel-level figure from traceOperators: on a
		// serving workload the request is the unit that tracing slows.
		m.set("trace.overhead_frac", median(a.latenciesMS())/p-1)
	}
	res.noteOverload(a, spec.limitMS)
	if err := rec.write(traceFile(cfg.outDir, cfg.workload)); err != nil {
		return err
	}
	return res.finish()
}

// traceOperators measures the traced model's kernels directly, over the
// serving inputs, checked against the module's own first outputs.
func traceOperators(rec *recorder, res *runResult, mod *core.Module, cfg config) error {
	inputs := seededInputs(cfg.seed, servingInputs, mod.Graph.Input.OutShape.Dims)
	refs := make([]*tensor.Tensor, len(inputs))
	for i, in := range inputs {
		outs, err := mod.Run(in)
		if err != nil {
			return err
		}
		refs[i] = outs[0]
	}
	slice := cfg.duration() / 16
	return profileOperators(rec, res, mod, inputs, refs, slice, slice, 20)
}
