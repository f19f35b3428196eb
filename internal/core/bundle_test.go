package core

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/artifact"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// saveBundleBytes compiles a model and serializes it, returning the module
// too so tests can compare against the original.
func saveBundleBytes(t testing.TB, model string, opts Options) (*Module, []byte) {
	t.Helper()
	g, err := models.BuildAny(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(g, skylake(), opts)
	if err != nil {
		t.Fatalf("%s: compile: %v", model, err)
	}
	var buf bytes.Buffer
	if err := m.SaveBundle(&buf); err != nil {
		t.Fatalf("%s: save bundle: %v", model, err)
	}
	return m, buf.Bytes()
}

// TestBundleRoundTrip is the core contract: a module loaded from a bundle —
// no search, no packing — computes bit-identical results to the module that
// produced the bundle, across algorithms (direct, winograd, depthwise) and
// pass-pipeline ablations.
func TestBundleRoundTrip(t *testing.T) {
	cases := []struct {
		model string
		opts  Options
	}{
		{"tiny-resnet", Options{Level: OptGlobalSearch, Threads: 2}},
		{"tiny-mobilenet", Options{Level: OptTransformElim, Threads: 1}},
		{"tiny-cnn", Options{Level: OptNone, Threads: 1}},
		{"tiny-vgg", Options{Level: OptLayout, Threads: 1}},
		{"tiny-resnet", Options{Level: OptTransformElim, Threads: 1, DisableBNFold: true, DisableFusion: true}},
	}
	for _, tc := range cases {
		orig, raw := saveBundleBytes(t, tc.model, tc.opts)
		loaded, err := LoadBundle(bytes.NewReader(raw), models.ResolveGraph, Options{Threads: tc.opts.Threads})
		if err != nil {
			t.Fatalf("%s %+v: load bundle: %v", tc.model, tc.opts, err)
		}
		if loaded.PlanStats().ArenaBytes != orig.PlanStats().ArenaBytes {
			t.Fatalf("%s: loaded arena %d, original %d", tc.model, loaded.PlanStats().ArenaBytes, orig.PlanStats().ArenaBytes)
		}
		if loaded.Level != orig.Level {
			t.Fatalf("%s: loaded level=%v, original level=%v", tc.model, loaded.Level, orig.Level)
		}

		in := tensor.New(tensor.NCHW(), orig.Graph.Input.OutShape.Dims...)
		in.FillRandom(99, 1)
		want, err := orig.Run(in)
		if err != nil {
			t.Fatalf("%s: original run: %v", tc.model, err)
		}
		got, err := loaded.Run(in)
		if err != nil {
			t.Fatalf("%s: loaded run: %v", tc.model, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d outputs, want %d", tc.model, len(got), len(want))
		}
		for i := range want {
			if len(got[i].Data) != len(want[i].Data) {
				t.Fatalf("%s output %d: %d values, want %d", tc.model, i, len(got[i].Data), len(want[i].Data))
			}
			for j := range want[i].Data {
				if got[i].Data[j] != want[i].Data[j] {
					t.Fatalf("%s output %d[%d]: loaded %v != original %v (must be bit-identical)",
						tc.model, i, j, got[i].Data[j], want[i].Data[j])
				}
			}
		}
		orig.Close()
		loaded.Close()
	}
}

// TestBundleSharedPool verifies a loaded module can borrow a caller-owned
// thread pool and that Close leaves the pool running for its owner.
func TestBundleSharedPool(t *testing.T) {
	orig, raw := saveBundleBytes(t, "tiny-resnet", Options{Level: OptTransformElim, Threads: 2})
	defer orig.Close()

	shared := threadpool.NewPool(2)
	defer shared.Close()
	a, err := LoadBundle(bytes.NewReader(raw), models.ResolveGraph, Options{Threads: 2, SharedPool: shared})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bytes.NewReader(raw), models.ResolveGraph, Options{Threads: 2, SharedPool: shared})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.NCHW(), orig.Graph.Input.OutShape.Dims...)
	in.FillRandom(5, 1)
	want, err := orig.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	outA, err := a.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	a.Close() // must not tear down the shared pool under b
	outB, err := b.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	for j := range want[0].Data {
		if outA[0].Data[j] != want[0].Data[j] || outB[0].Data[j] != want[0].Data[j] {
			t.Fatalf("shared-pool output diverges at %d", j)
		}
	}
}

// TestBundleTargetMismatch: a bundle whose target signature disagrees with
// what this build resolves must be rejected with ErrBundleTarget.
func TestBundleTargetMismatch(t *testing.T) {
	_, raw := saveBundleBytes(t, "tiny-cnn", Options{Level: OptTransformElim, Threads: 1})
	rewrite := func(mut func(h *artifact.Header)) []byte {
		b, err := artifact.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		mut(&b.Header)
		var buf bytes.Buffer
		if err := artifact.Write(&buf, b.Header, b.Params); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	skewedLanes := rewrite(func(h *artifact.Header) { h.Target.VectorLanes /= 2 })
	if _, err := LoadBundle(bytes.NewReader(skewedLanes), models.ResolveGraph, Options{}); !errors.Is(err, ErrBundleTarget) {
		t.Fatalf("skewed lanes: err = %v, want ErrBundleTarget", err)
	}
	unknown := rewrite(func(h *artifact.Header) { h.Target.Name = "no-such-cpu" })
	if _, err := LoadBundle(bytes.NewReader(unknown), models.ResolveGraph, Options{}); !errors.Is(err, ErrBundleTarget) {
		t.Fatalf("unknown target: err = %v, want ErrBundleTarget", err)
	}
	// Cores is provenance only: a different core count must still load.
	cores := rewrite(func(h *artifact.Header) { h.Target.Cores = 99 })
	m, err := LoadBundle(bytes.NewReader(cores), models.ResolveGraph, Options{Threads: 1})
	if err != nil {
		t.Fatalf("different cores: %v", err)
	}
	m.Close()
}

// TestBundleStaleContent: bundles that decode structurally but disagree with
// the rebuilt graph (wrong model, missing or surplus params, a param in an
// unknown layout, a rebuilt arena larger than recorded) fail with
// ErrInvalidArtifact.
func TestBundleStaleContent(t *testing.T) {
	_, raw := saveBundleBytes(t, "tiny-cnn", Options{Level: OptTransformElim, Threads: 1})
	b, err := artifact.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	mutations := []func(h *artifact.Header, params []artifact.Param) []artifact.Param{
		func(h *artifact.Header, params []artifact.Param) []artifact.Param {
			h.Model = "tiny-resnet" // plan/params from another model
			return params
		},
		func(h *artifact.Header, params []artifact.Param) []artifact.Param {
			h.Model = "no-such-model"
			return params
		},
		func(h *artifact.Header, params []artifact.Param) []artifact.Param {
			return params[:len(params)-1] // drop a required param
		},
		func(h *artifact.Header, params []artifact.Param) []artifact.Param {
			return append(params, params[len(params)-1]) // duplicate param
		},
		func(h *artifact.Header, params []artifact.Param) []artifact.Param {
			params[0].Entry.Layout = artifact.LayoutRef{Kind: "nhwc"} // not a layout kind
			return params
		},
		func(h *artifact.Header, params []artifact.Param) []artifact.Param {
			h.ArenaBytes -= 4096 // the rebuilt plan needs more arena than recorded
			return params
		},
		func(h *artifact.Header, params []artifact.Param) []artifact.Param {
			h.Level = "warp-speed"
			return params
		},
	}
	for i, mut := range mutations {
		h := b.Header
		params := append([]artifact.Param(nil), b.Params...)
		params = mut(&h, params)
		var buf bytes.Buffer
		if err := artifact.Write(&buf, h, params); err != nil {
			t.Fatalf("mutation %d: rewrite: %v", i, err)
		}
		if _, err := LoadBundle(bytes.NewReader(buf.Bytes()), models.ResolveGraph, Options{}); !errors.Is(err, artifact.ErrInvalidArtifact) {
			t.Fatalf("mutation %d: err = %v, want ErrInvalidArtifact", i, err)
		}
	}
}

// FuzzLoadBundle mirrors FuzzLoadPlan for the binary bundle format: however
// corrupted, truncated or version-skewed the input, LoadBundle never panics
// and every rejection is typed (artifact.ErrInvalidArtifact or
// ErrBundleTarget), so repository tooling can distinguish "this bundle is
// bad" from an internal failure. Decoding must also never allocate
// proportionally to attacker-claimed sizes — the fuzz engine's memory limit
// enforces that side.
func FuzzLoadBundle(f *testing.F) {
	_, valid := saveBundleBytes(f, "tiny-cnn", Options{Level: OptTransformElim, Threads: 1})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:11])
	f.Add([]byte{})
	f.Add([]byte("NEOB"))
	f.Add([]byte("not a bundle at all........."))
	// Version skew.
	skew := append([]byte(nil), valid...)
	skew[4]++
	f.Add(skew)
	// Flipped header byte (breaks JSON or a validated field).
	hdr := append([]byte(nil), valid...)
	hdr[20] ^= 0x20
	f.Add(hdr)
	// Flipped payload byte (breaks the CRC).
	pay := append([]byte(nil), valid...)
	pay[len(pay)-5] ^= 0x01
	f.Add(pay)
	// A quantized bundle of an earlier int8-capable build.
	int8Bundle, err := os.ReadFile("testdata/int8_tiny-cnn.bundle")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int8Bundle)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadBundle(bytes.NewReader(data), models.ResolveGraph, Options{Threads: 1})
		if err != nil {
			if !errors.Is(err, artifact.ErrInvalidArtifact) && !errors.Is(err, ErrBundleTarget) {
				t.Fatalf("LoadBundle returned an untyped error: %v", err)
			}
			return
		}
		m.Close()
	})
}
