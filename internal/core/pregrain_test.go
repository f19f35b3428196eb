package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"repro/internal/artifact"
	"repro/internal/models"
	"repro/internal/tensor"
)

// The <generation>_tiny-resnet.* fixtures under testdata/ were saved by older
// compilers (see gen_pregrain.go for provenance): "pregrain" BEFORE the
// schedule grain field existed, "grain" by the last build that searched a
// parallel grain and wrote it into every plan and bundle entry. Both
// generations also carry the unroll_ker key of the builds that searched
// kernel unrolling. These tests pin backward compatibility: artifacts of both
// generations must keep loading — the grain and unroll_ker keys are ignored
// on read — and modules built from them must execute bit-identically to the
// sequential reference and to each other.
var fixtureGenerations = []struct {
	name     string
	hasGrain bool
}{
	{"pregrain", false},
	{"grain", true},
}

// loadFixture reads one fixture file and checks it really is of its
// generation and carries the unroll_ker key, so a regenerated fixture cannot
// silently stop covering the grain- or unroll_ker-bearing format.
func loadFixture(t *testing.T, gen string, hasGrain bool, ext string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + gen + "_tiny-resnet." + ext)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Contains(raw, []byte(`"grain"`)); got != hasGrain {
		t.Fatalf("%s fixture .%s: carries a grain key = %v, want %v", gen, ext, got, hasGrain)
	}
	if !bytes.Contains(raw, []byte(`"unroll_ker"`)) {
		t.Fatalf("%s fixture .%s: carries no unroll_ker key", gen, ext)
	}
	return raw
}

func compileFixturePlan(t *testing.T, raw []byte) *Module {
	t.Helper()
	pf, err := LoadPlan(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("older plan must keep loading: %v", err)
	}
	g, err := models.BuildAny("tiny-resnet", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := CompileWithPlan(g, skylake(), pf, Options{Threads: 2})
	if err != nil {
		t.Fatalf("older plan must keep compiling: %v", err)
	}
	return m
}

func TestOlderPlanCompat(t *testing.T) {
	for _, gen := range fixtureGenerations {
		t.Run(gen.name, func(t *testing.T) {
			m := compileFixturePlan(t, loadFixture(t, gen.name, gen.hasGrain, "plan.json"))
			defer m.Close()
			in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
			in.FillRandom(21, 1)
			s, err := m.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Run(context.Background(), in)
			if err != nil {
				t.Fatalf("module planned from an older file must execute: %v", err)
			}
			want, err := referenceRun(m, in)
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.BitEqual(want[0], got[0]) {
				t.Fatalf("older plan execution diverges from reference by %g (max abs)", tensor.MaxAbsDiff(want[0], got[0]))
			}
		})
	}
}

func TestOlderBundleCompat(t *testing.T) {
	for _, gen := range fixtureGenerations {
		t.Run(gen.name, func(t *testing.T) {
			raw := loadFixture(t, gen.name, gen.hasGrain, "bundle")
			bm, err := LoadBundle(bytes.NewReader(raw), models.ResolveGraph, Options{Threads: 2})
			if err != nil {
				t.Fatalf("older bundle must keep loading: %v", err)
			}
			defer bm.Close()
			// The plan fixture carries the same schedules the bundle does, so
			// the two load paths must produce bit-identical modules.
			pm := compileFixturePlan(t, loadFixture(t, gen.name, gen.hasGrain, "plan.json"))
			defer pm.Close()

			in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
			in.FillRandom(22, 1)
			fromBundle, err := bm.Run(in)
			if err != nil {
				t.Fatalf("older bundle module must execute: %v", err)
			}
			want, err := referenceRun(bm, in)
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.BitEqual(want[0], fromBundle[0]) {
				t.Fatalf("older bundle execution diverges from reference by %g (max abs)", tensor.MaxAbsDiff(want[0], fromBundle[0]))
			}
			fromPlan, err := pm.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.BitEqual(fromPlan[0], fromBundle[0]) {
				t.Fatalf("bundle- and plan-loaded older modules diverge by %g (max abs)", tensor.MaxAbsDiff(fromPlan[0], fromBundle[0]))
			}
		})
	}
}

// TestPadSlotBundleCompat loads padslot_tiny-mobilenet.bundle, saved by the
// last build whose depthwise template copied its input into a planned pad
// slot (see gen_padslot.go). The current planner builds a smaller arena for
// the same schedules, and a bundle recording more arena than its rebuilt plan
// needs must keep loading and run with the bits of a fresh compile of the
// same model; one recording less than the rebuilt plan needs must still fail
// with ErrInvalidArtifact.
func TestPadSlotBundleCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/padslot_tiny-mobilenet.bundle")
	if err != nil {
		t.Fatal(err)
	}
	b, err := artifact.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Threads: 2}
	bm, err := LoadBundle(bytes.NewReader(raw), models.ResolveGraph, opts)
	if err != nil {
		t.Fatalf("bundle saved with a depthwise pad slot must keep loading: %v", err)
	}
	defer bm.Close()
	rebuilt := bm.PlanStats().ArenaBytes
	if rebuilt >= b.Header.ArenaBytes {
		t.Fatalf("rebuilt arena %d bytes, recorded %d: the fixture no longer covers a plan that shrank", rebuilt, b.Header.ArenaBytes)
	}

	g, err := models.BuildAny("tiny-mobilenet", 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Compile(g, skylake(), Options{Level: OptGlobalSearch, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	in := tensor.New(tensor.NCHW(), g.Input.OutShape.Dims...)
	in.FillRandom(23, 1)
	got, err := bm.Run(in)
	if err != nil {
		t.Fatalf("bundle saved with a depthwise pad slot must execute: %v", err)
	}
	want, err := fresh.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.BitEqual(want[0], got[0]) {
		t.Fatalf("bundle output differs in its bits from a fresh compile's (max abs diff %g)", tensor.MaxAbsDiff(want[0], got[0]))
	}

	for _, c := range []struct {
		name     string
		recorded int
		ok       bool
	}{
		{"equal", rebuilt, true},
		{"smaller", rebuilt - 4, false},
	} {
		h := b.Header
		h.ArenaBytes = c.recorded
		var buf bytes.Buffer
		if err := artifact.Write(&buf, h, b.Params); err != nil {
			t.Fatalf("%s: rewrite: %v", c.name, err)
		}
		m, err := LoadBundle(bytes.NewReader(buf.Bytes()), models.ResolveGraph, opts)
		if c.ok {
			if err != nil {
				t.Fatalf("recorded arena equal to the rebuilt one: %v", err)
			}
			m.Close()
		} else if !errors.Is(err, artifact.ErrInvalidArtifact) {
			t.Fatalf("recorded arena %d below the rebuilt %d: err = %v, want ErrInvalidArtifact", c.recorded, rebuilt, err)
		}
	}
}

// TestInt8BundleRejected loads int8_tiny-cnn.bundle, a quantized bundle
// saved by the last build that had an int8 path (see gen_int8.go). This build
// runs fp32 only, and the bundle's NCHW-planned convolutions were stored in
// fp32, so it must fail with the typed artifact.ErrInt8Bundle rather than
// load as an fp32 module.
func TestInt8BundleRejected(t *testing.T) {
	raw, err := os.ReadFile("testdata/int8_tiny-cnn.bundle")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"int8":true`, `"role":"qpacked"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Fatalf("fixture carries no %s: it no longer covers an int8 bundle", key)
		}
	}
	_, err = LoadBundle(bytes.NewReader(raw), models.ResolveGraph, Options{Threads: 1})
	if !errors.Is(err, artifact.ErrInt8Bundle) {
		t.Fatalf("int8 bundle: err = %v, want artifact.ErrInt8Bundle", err)
	}
}
