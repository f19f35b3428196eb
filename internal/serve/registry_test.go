// Black-box tests for the model repository subsystem: bundles are written to
// a real directory, loaded through DirSource, and driven through the
// Registry and the repository HTTP endpoints the way an operator would. The
// concurrency tests are written for -race: lifecycle transitions (load,
// unload, LRU eviction) overlap with live inference traffic.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tensor"
)

var repoOpts = core.Options{Level: core.OptTransformElim, Threads: 1}

// writeBundles compiles the named tiny models, serializes each to
// dir/<name>.neob, and returns each model's per-session arena bytes (the
// unit the registry budget is denominated in).
func writeBundles(t testing.TB, dir string, names ...string) map[string]int {
	t.Helper()
	arenas := make(map[string]int, len(names))
	for _, name := range names {
		g, err := models.BuildAny(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Compile(g, machine.IntelSkylakeC5(), repoOpts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := os.Create(filepath.Join(dir, name+serve.BundleExt))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SaveBundle(f); err != nil {
			t.Fatalf("%s: save bundle: %v", name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		arenas[name] = m.PlanStats().ArenaBytes
		m.Close()
	}
	return arenas
}

// refOutput computes the engine's own output for one model and input — the
// bit-identical reference every served response is held to.
func refOutput(t testing.TB, name string, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	g, err := models.BuildAny(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Compile(g, machine.IntelSkylakeC5(), repoOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	outs, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return outs[0]
}

func newRepoRegistry(t testing.TB, dir string, cfg serve.RegistryConfig) *serve.Registry {
	t.Helper()
	reg, err := serve.NewRegistry(&serve.DirSource{Dir: dir, Resolve: models.ResolveGraph}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return reg
}

func indexState(idx []serve.ModelStatus, name string) string {
	for _, m := range idx {
		if m.Name == name {
			return m.State
		}
	}
	return "<absent>"
}

// TestRegistryLifecycleAndEviction is the acceptance-criteria walk: three
// bundles, a budget that fits only two, and the third load must evict the
// least-recently-used idle model — state transitions visible in the index
// throughout.
func TestRegistryLifecycleAndEviction(t *testing.T) {
	dir := t.TempDir()
	arenas := writeBundles(t, dir, "tiny-cnn", "tiny-resnet", "tiny-vgg")
	total := arenas["tiny-cnn"] + arenas["tiny-resnet"] + arenas["tiny-vgg"]
	over := map[string]serve.Config{}
	for name := range arenas {
		over[name] = serve.Config{PoolSize: 1}
	}
	// One session each; all three at once is exactly one byte over budget.
	reg := newRepoRegistry(t, dir, serve.RegistryConfig{
		ArenaBudget: total - 1,
		Overrides:   over,
		LoadOptions: core.Options{Threads: 1},
	})

	for _, m := range reg.Index() {
		if m.State != string(serve.StateAvailable) {
			t.Fatalf("%s starts %q, want available", m.Name, m.State)
		}
	}
	if err := reg.Load("no-such-model"); !errors.Is(err, serve.ErrModelNotFound) {
		t.Fatalf("loading unknown model: %v, want ErrModelNotFound", err)
	}
	if err := reg.Load("tiny-cnn"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("tiny-cnn"); err != nil {
		t.Fatalf("loading a ready model must be a no-op, got %v", err)
	}
	if err := reg.Load("tiny-resnet"); err != nil {
		t.Fatal(err)
	}

	// Touch tiny-cnn so tiny-resnet is the least recently used.
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(42, 1)
	want := refOutput(t, "tiny-cnn", in)
	outs, err := reg.Infer(context.Background(), "tiny-cnn", in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if outs[0].Data[i] != want.Data[i] {
			t.Fatalf("repository output diverges from engine at %d", i)
		}
	}

	if err := reg.Load("tiny-vgg"); err != nil {
		t.Fatalf("third load should evict the LRU idle model, got %v", err)
	}
	idx := reg.Index()
	if got := indexState(idx, "tiny-resnet"); got != string(serve.StateUnloaded) {
		t.Fatalf("tiny-resnet after eviction: %q, want unloaded (index: %+v)", got, idx)
	}
	if got := indexState(idx, "tiny-cnn"); got != string(serve.StateReady) {
		t.Fatalf("recently used tiny-cnn was evicted instead of the LRU model (index: %+v)", idx)
	}
	if got := indexState(idx, "tiny-vgg"); got != string(serve.StateReady) {
		t.Fatalf("tiny-vgg: %q, want ready", got)
	}
	if reg.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", reg.Evictions())
	}

	// Known-but-unloaded vs unknown: different typed errors.
	if _, err := reg.Infer(context.Background(), "tiny-resnet", in); !errors.Is(err, serve.ErrModelNotReady) {
		t.Fatalf("inferring on evicted model: %v, want ErrModelNotReady", err)
	}
	if _, err := reg.Infer(context.Background(), "nope", in); !errors.Is(err, serve.ErrModelNotFound) {
		t.Fatalf("inferring on unknown model: %v, want ErrModelNotFound", err)
	}

	// The evicted model reloads on demand (evicting someone else in turn).
	if err := reg.Load("tiny-resnet"); err != nil {
		t.Fatalf("reloading evicted model: %v", err)
	}
	if reg.Evictions() != 2 {
		t.Fatalf("evictions = %d, want 2", reg.Evictions())
	}

	// Unload is idempotent for models that are already down.
	if err := reg.Unload("tiny-resnet"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Unload("tiny-resnet"); err != nil {
		t.Fatalf("double unload: %v, want nil", err)
	}
	if err := reg.Unload("nope"); !errors.Is(err, serve.ErrModelNotFound) {
		t.Fatalf("unloading unknown model: %v, want ErrModelNotFound", err)
	}
}

// TestRegistryRejectsInt8Bundle: a quantized bundle saved by an earlier
// int8-capable build, dropped into a repository beside fp32 bundles, fails
// its load after exactly one attempt (ErrInt8Bundle is not retryable) and
// shows as failed with that reason, while the fp32 models beside it load and
// serve their engine's bits.
func TestRegistryRejectsInt8Bundle(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	writeBundles(t, dir, "tiny-cnn", "tiny-resnet")
	raw, err := os.ReadFile("../core/testdata/int8_tiny-cnn.bundle")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "old-int8"+serve.BundleExt), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := newRepoRegistry(t, dir, serve.RegistryConfig{
		LoadOptions: core.Options{Threads: 1},
	})

	// A pass-through hook, only to count load attempts.
	faults.Inject(faults.SiteRegistryLoad, func(string) error { return nil })
	if err := reg.Load("old-int8"); !errors.Is(err, artifact.ErrInt8Bundle) {
		t.Fatalf("loading an int8 bundle: %v, want artifact.ErrInt8Bundle", err)
	}
	if n := faults.Count(faults.SiteRegistryLoad); n != 1 {
		t.Fatalf("int8 bundle load took %d attempts, want 1", n)
	}
	var st serve.ModelStatus
	for _, m := range reg.Index() {
		if m.Name == "old-int8" {
			st = m
		}
	}
	if st.State != string(serve.StateFailed) || !strings.Contains(st.Reason, artifact.ErrInt8Bundle.Error()) {
		t.Fatalf("int8 bundle status %+v, want failed with the ErrInt8Bundle reason", st)
	}

	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(43, 1)
	for _, name := range []string{"tiny-cnn", "tiny-resnet"} {
		if err := reg.Load(name); err != nil {
			t.Fatalf("%s beside an int8 bundle: %v", name, err)
		}
		outs, err := reg.Infer(context.Background(), name, in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.BitEqual(outs[0], refOutput(t, name, in)) {
			t.Fatalf("%s: repository output differs from the engine's", name)
		}
	}
}

// TestEvictionSkipsBusyModel: a model with a request in flight must never be
// torn down by the budget, even when it is the only eviction candidate — the
// load fails with ErrArenaBudget instead, and the in-flight request
// completes on its intact session.
func TestEvictionSkipsBusyModel(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	arenas := writeBundles(t, dir, "tiny-cnn", "tiny-resnet")
	reg := newRepoRegistry(t, dir, serve.RegistryConfig{
		// Either model fits alone; both together never do.
		ArenaBudget: arenas["tiny-cnn"] + arenas["tiny-resnet"] - 1,
		Overrides: map[string]serve.Config{
			"tiny-cnn":    {PoolSize: 1},
			"tiny-resnet": {PoolSize: 1},
		},
		LoadOptions: core.Options{Threads: 1},
	})
	if err := reg.Load("tiny-cnn"); err != nil {
		t.Fatal(err)
	}

	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(7, 1)
	want := refOutput(t, "tiny-cnn", in)
	type result struct {
		outs []*tensor.Tensor
		err  error
	}
	// Hold the tiny-cnn run on its session (and the model's in-flight count
	// above zero) until the refused load has been checked.
	release := make(chan struct{})
	faults.Inject(faults.SiteBatcherDispatch, faults.OnLabel("tiny-cnn", func(string) error {
		<-release
		return nil
	}))
	done := make(chan result, 1)
	go func() {
		outs, err := reg.Infer(context.Background(), "tiny-cnn", in)
		done <- result{outs, err}
	}()

	// Wait until the request is demonstrably in flight, then try to load the
	// second model.
	deadline := time.Now().Add(5 * time.Second)
	for {
		inflight := 0
		for _, m := range reg.Index() {
			if m.Name == "tiny-cnn" {
				inflight = m.Inflight
			}
		}
		if inflight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never went in flight")
		}
		time.Sleep(time.Millisecond)
	}
	if err := reg.Load("tiny-resnet"); !errors.Is(err, serve.ErrArenaBudget) {
		t.Fatalf("loading over budget with only a busy candidate: %v, want ErrArenaBudget", err)
	}
	if got := indexState(reg.Index(), "tiny-cnn"); got != string(serve.StateReady) {
		t.Fatalf("busy model state %q after refused eviction, want ready", got)
	}

	close(release)
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed: %v", r.err)
	}
	for i := range want.Data {
		if r.outs[0].Data[i] != want.Data[i] {
			t.Fatalf("in-flight request output diverges at %d", i)
		}
	}

	// Idle now: the same load succeeds by evicting it.
	if err := reg.Load("tiny-resnet"); err != nil {
		t.Fatalf("load after the model went idle: %v", err)
	}
	if got := indexState(reg.Index(), "tiny-cnn"); got != string(serve.StateUnloaded) {
		t.Fatalf("idle model state %q, want unloaded", got)
	}
}

// TestRegistryConcurrentChaos runs lifecycle churn (loads, unloads, budget
// evictions) against sustained inference traffic on three models under
// -race. Every successful response must be bit-identical to the engine;
// every failure must be one of the typed lifecycle errors.
func TestRegistryConcurrentChaos(t *testing.T) {
	dir := t.TempDir()
	names := []string{"tiny-cnn", "tiny-resnet", "tiny-vgg"}
	arenas := writeBundles(t, dir, names...)
	total := 0
	over := map[string]serve.Config{}
	for name, a := range arenas {
		total += a
		over[name] = serve.Config{PoolSize: 1, QueueDepth: 64}
	}
	reg := newRepoRegistry(t, dir, serve.RegistryConfig{
		ArenaBudget: total - 1, // any two fit, all three never do
		Overrides:   over,
		LoadOptions: core.Options{Threads: 1},
	})

	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(123, 1)
	wants := map[string]*tensor.Tensor{}
	for _, name := range names {
		wants[name] = refOutput(t, name, in)
	}

	const workers = 6
	const churnCycles = 15
	var wg, trafficWG sync.WaitGroup
	errs := make(chan error, workers+len(names))
	churnDone := make(chan struct{})

	// Churners: each cycles one model through load/unload. Budget and
	// transition rejections are part of normal operation under churn.
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < churnCycles; i++ {
				if err := reg.Load(name); err != nil &&
					!errors.Is(err, serve.ErrArenaBudget) && !errors.Is(err, serve.ErrModelBusy) {
					errs <- fmt.Errorf("load %s: %w", name, err)
					return
				}
				if i%3 == 2 {
					if err := reg.Unload(name); err != nil && !errors.Is(err, serve.ErrModelBusy) {
						errs <- fmt.Errorf("unload %s: %w", name, err)
						return
					}
				}
			}
		}(name)
	}
	// Traffic: workers hammer all three models for as long as the churn
	// lasts; lifecycle rejections are expected, wrong answers and untyped
	// errors are not.
	var servedMu sync.Mutex
	served := 0
	for w := 0; w < workers; w++ {
		trafficWG.Add(1)
		go func(w int) {
			defer trafficWG.Done()
			for i := 0; ; i++ {
				select {
				case <-churnDone:
					return
				default:
				}
				name := names[(w+i)%len(names)]
				outs, err := reg.Infer(context.Background(), name, in)
				if err != nil {
					if errors.Is(err, serve.ErrModelNotReady) || errors.Is(err, serve.ErrClosed) ||
						errors.Is(err, serve.ErrQueueFull) {
						continue
					}
					errs <- fmt.Errorf("infer %s: %w", name, err)
					return
				}
				want := wants[name]
				for j := range want.Data {
					if outs[0].Data[j] != want.Data[j] {
						errs <- fmt.Errorf("infer %s: output diverges at %d mid-churn", name, j)
						return
					}
				}
				servedMu.Lock()
				served++
				servedMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(churnDone)
	trafficWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Post-churn the registry must still function deterministically: every
	// model loads (evicting as needed) and serves the bit-identical answer.
	for _, name := range names {
		if err := reg.Load(name); err != nil {
			t.Fatalf("post-churn load %s: %v", name, err)
		}
		outs, err := reg.Infer(context.Background(), name, in)
		if err != nil {
			t.Fatalf("post-churn infer %s: %v", name, err)
		}
		want := wants[name]
		for j := range want.Data {
			if outs[0].Data[j] != want.Data[j] {
				t.Fatalf("post-churn infer %s: output diverges at %d", name, j)
			}
		}
	}
	st := reg.Stats()
	if st.ArenaReservedBytes > total-1 {
		t.Fatalf("reserved %d exceeds budget %d after churn", st.ArenaReservedBytes, total-1)
	}
	t.Logf("served=%d evictions=%d reserved=%d/%d", served, reg.Evictions(), st.ArenaReservedBytes, total-1)
}

// TestRepositoryServerHTTP drives the repository endpoints end-to-end: index,
// load, cross-model inference bit-identical to a fresh single-model server,
// per-model stats, unload, and the 404-unknown vs 503-unloaded distinction.
func TestRepositoryServerHTTP(t *testing.T) {
	dir := t.TempDir()
	writeBundles(t, dir, "tiny-cnn", "tiny-resnet")
	reg := newRepoRegistry(t, dir, serve.RegistryConfig{
		Defaults:    serve.Config{PoolSize: 2},
		LoadOptions: core.Options{Threads: 1},
	})
	srv, err := serve.NewRepository(reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	client := ts.Client()

	getIndex := func() []serve.ModelStatus {
		t.Helper()
		resp, err := client.Get(ts.URL + "/v2/repository/index")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("index: %d", resp.StatusCode)
		}
		var idx []serve.ModelStatus
		if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
			t.Fatal(err)
		}
		return idx
	}
	post := func(path string) int {
		t.Helper()
		resp, err := client.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	idx := getIndex()
	if len(idx) != 2 || idx[0].State != string(serve.StateAvailable) {
		t.Fatalf("boot index: %+v", idx)
	}
	// Unloaded-but-known models answer 503 on infer/ready; unknown 404.
	if code := post("/v2/models/tiny-cnn/infer"); code != http.StatusServiceUnavailable {
		t.Fatalf("infer before load: %d, want 503", code)
	}
	if code := post("/v2/models/missing/infer"); code != http.StatusNotFound {
		t.Fatalf("infer unknown: %d, want 404", code)
	}
	if code := post("/v2/repository/models/missing/load"); code != http.StatusNotFound {
		t.Fatalf("load unknown: %d, want 404", code)
	}

	for _, name := range []string{"tiny-cnn", "tiny-resnet"} {
		if code := post("/v2/repository/models/" + name + "/load"); code != http.StatusOK {
			t.Fatalf("load %s: %d", name, code)
		}
	}
	idx = getIndex()
	for _, m := range idx {
		if !m.Ready {
			t.Fatalf("after load, %s is %q", m.Name, m.State)
		}
	}

	// Cross-model inference: each routed response carries the routed model's
	// name and is bit-identical to a fresh single-model server of the same
	// model.
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(77, 1)
	body, err := json.Marshal(serve.InferRequest{Inputs: []serve.InferTensor{{
		Name: "input", Shape: in.Shape, Datatype: "FP32", Data: in.Data,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tiny-cnn", "tiny-resnet"} {
		g, err := models.BuildAny(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := core.Compile(g, machine.IntelSkylakeC5(), repoOpts)
		if err != nil {
			t.Fatal(err)
		}
		single, err := serve.New(mod, "", serve.Config{PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		sts := httptest.NewServer(single.Handler())

		decode := func(url string) serve.InferResponse {
			t.Helper()
			resp, err := client.Post(url+"/v2/models/"+name+"/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				raw, _ := io.ReadAll(resp.Body)
				t.Fatalf("%s infer: %d: %s", name, resp.StatusCode, raw)
			}
			var ir serve.InferResponse
			if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
				t.Fatal(err)
			}
			return ir
		}
		fromRepo := decode(ts.URL)
		fromSingle := decode(sts.URL)
		sts.Close()
		single.Close()
		mod.Close()

		if fromRepo.ModelName != name {
			t.Fatalf("repository response model_name %q, want %q (must reflect the routed model)", fromRepo.ModelName, name)
		}
		if len(fromRepo.Outputs) != 1 || len(fromRepo.Outputs[0].Data) != len(fromSingle.Outputs[0].Data) {
			t.Fatalf("%s: output geometry mismatch", name)
		}
		for i := range fromSingle.Outputs[0].Data {
			if fromRepo.Outputs[0].Data[i] != fromSingle.Outputs[0].Data[i] {
				t.Fatalf("%s: repository and single-model servers diverge at %d", name, i)
			}
		}
	}

	// Per-model stats carry real counters for loaded models and 404 for
	// unknown ones.
	resp, err := client.Get(ts.URL + "/v2/models/tiny-cnn/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.ModelStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Pool.Items == 0 || st.Pool.ArenaBytesPerSession == 0 {
		t.Fatalf("per-model stats look empty: %+v", st)
	}
	resp, err = client.Get(ts.URL + "/v2/models/missing/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model stats: %d, want 404", resp.StatusCode)
	}

	// Aggregate stats in repository mode list every model.
	resp, err = client.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var rst serve.RegistryStats
	if err := json.NewDecoder(resp.Body).Decode(&rst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rst.Models) != 2 {
		t.Fatalf("aggregate stats cover %d models, want 2", len(rst.Models))
	}

	// Unload flips infer/ready to 503 while unknown names stay 404.
	if code := post("/v2/repository/models/tiny-resnet/unload"); code != http.StatusOK {
		t.Fatalf("unload: %d", code)
	}
	if got := indexState(getIndex(), "tiny-resnet"); got != string(serve.StateUnloaded) {
		t.Fatalf("tiny-resnet after unload: %q", got)
	}
	resp, err = client.Get(ts.URL + "/v2/models/tiny-resnet/ready")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unloaded model ready: %d, want 503", resp.StatusCode)
	}
}

// TestSidecarConfig: a <name>.config.json next to the bundle tunes that
// model's pool and admission without touching the others. A sidecar written
// for older servers, still carrying max_batch, max_latency_ms and
// arena_budget, loads with those keys ignored.
func TestSidecarConfig(t *testing.T) {
	dir := t.TempDir()
	writeBundles(t, dir, "tiny-cnn", "tiny-resnet", "tiny-vgg")
	sidecars := map[string]string{
		"tiny-cnn": `{"pool_size": 1, "queue_depth": 5}`,
		"tiny-vgg": `{"pool_size": 2, "max_batch": 8, "max_latency_ms": 2, "arena_budget": 1, "queue_depth": 3}`,
	}
	for name, sc := range sidecars {
		if err := os.WriteFile(filepath.Join(dir, name+".config.json"), []byte(sc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := newRepoRegistry(t, dir, serve.RegistryConfig{
		Defaults:    serve.Config{PoolSize: 4},
		LoadOptions: core.Options{Threads: 1},
	})
	for _, name := range []string{"tiny-cnn", "tiny-resnet", "tiny-vgg"} {
		if err := reg.Load(name); err != nil {
			t.Fatal(err)
		}
	}
	cnn, err := reg.ModelStatsFor("tiny-cnn")
	if err != nil {
		t.Fatal(err)
	}
	if cnn.Pool.MaxSize != 1 {
		t.Fatalf("sidecar pool_size ignored: max %d, want 1", cnn.Pool.MaxSize)
	}
	resnet, err := reg.ModelStatsFor("tiny-resnet")
	if err != nil {
		t.Fatal(err)
	}
	if resnet.Pool.MaxSize != 4 {
		t.Fatalf("default pool size not applied: max %d, want 4", resnet.Pool.MaxSize)
	}
	vgg, err := reg.ModelStatsFor("tiny-vgg")
	if err != nil {
		t.Fatal(err)
	}
	if vgg.Pool.MaxSize != 2 {
		t.Fatalf("older sidecar's pool_size ignored: max %d, want 2", vgg.Pool.MaxSize)
	}
	got, found, err := (&serve.DirSource{Dir: dir}).Config("tiny-vgg")
	if err != nil || !found {
		t.Fatalf("older sidecar: found %v, err %v", found, err)
	}
	if want := (serve.Config{PoolSize: 2, QueueDepth: 3}); got != want {
		t.Fatalf("older sidecar resolved to %+v, want %+v", got, want)
	}
}

// TestRegistryChargesCoreBound: with PoolSize 0 each loaded model is charged
// its default pool bound, max(1, GOMAXPROCS / load threads), times its arena
// against the registry budget, and the index reports that charge.
func TestRegistryChargesCoreBound(t *testing.T) {
	dir := t.TempDir()
	arenas := writeBundles(t, dir, "tiny-cnn", "tiny-resnet")
	procs := runtime.GOMAXPROCS(0)
	for _, threads := range []int{1, 2} {
		reg := newRepoRegistry(t, dir, serve.RegistryConfig{LoadOptions: core.Options{Threads: threads}})
		for name, arena := range arenas {
			if err := reg.Load(name); err != nil {
				t.Fatal(err)
			}
			st, err := reg.ModelStatsFor(name)
			if err != nil {
				t.Fatal(err)
			}
			bound := max(1, procs/threads)
			if st.Pool.MaxSize != bound || st.Pool.ArenaBytesPerSession != arena {
				t.Fatalf("threads %d, %s: pool bound %d of %d B arenas, want %d of %d B",
					threads, name, st.Pool.MaxSize, st.Pool.ArenaBytesPerSession, bound, arena)
			}
			var charged int
			for _, m := range reg.Index() {
				if m.Name == name {
					charged = m.ArenaReservedBytes
				}
			}
			if charged != bound*arena {
				t.Fatalf("threads %d, %s: index charges %d B, want %d × %d B", threads, name, charged, bound, arena)
			}
		}
	}
}
