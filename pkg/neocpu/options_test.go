package neocpu

import (
	"errors"
	"testing"
)

// TestParseLevelTable sweeps ParseLevel's error paths alongside the valid
// names: unknown, empty, wrong case, and near-miss spellings must all fail
// with the typed error, never resolve to a default level.
func TestParseLevelTable(t *testing.T) {
	cases := []struct {
		in      string
		want    Level
		wantErr error
	}{
		{"baseline-nchw", LevelBaseline, nil},
		{"layout-opt", LevelLayout, nil},
		{"transform-elim", LevelTransformElim, nil},
		{"global-search", LevelGlobalSearch, nil},
		{"", 0, ErrUnknownLevel},
		{"Global-Search", 0, ErrUnknownLevel},
		{"global_search", 0, ErrUnknownLevel},
		{"o3", 0, ErrUnknownLevel},
	}
	for _, c := range cases {
		t.Run("in="+c.in, func(t *testing.T) {
			got, err := ParseLevel(c.in)
			if c.wantErr != nil {
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("ParseLevel(%q) err = %v, want %v", c.in, err, c.wantErr)
				}
				return
			}
			if err != nil || got != c.want {
				t.Fatalf("ParseLevel(%q) = %v, %v; want %v", c.in, got, err, c.want)
			}
		})
	}
}

// TestParseTargetTable mirrors TestParseLevelTable for target presets.
func TestParseTargetTable(t *testing.T) {
	cases := []struct {
		in      string
		wantErr error
	}{
		{"intel-skylake", nil},
		{"amd-epyc", nil},
		{"arm-cortex-a72", nil},
		{"intel-cascadelake", nil},
		{"arm-graviton2", nil},
		{"", ErrUnknownTarget},
		{"Intel-Skylake", ErrUnknownTarget},
		{"intel_skylake", ErrUnknownTarget},
		{"riscv", ErrUnknownTarget},
	}
	for _, c := range cases {
		t.Run("in="+c.in, func(t *testing.T) {
			tgt, err := ParseTarget(c.in)
			if c.wantErr != nil {
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("ParseTarget(%q) err = %v, want %v", c.in, err, c.wantErr)
				}
				return
			}
			if err != nil || tgt == nil || tgt.Name != c.in {
				t.Fatalf("ParseTarget(%q) = %+v, %v", c.in, tgt, err)
			}
		})
	}
}

// TestCompileOptionErrorPaths is the table-driven sweep over every compile
// option's invalid-input branch (and, for contrast, the edge values each
// option accepts). Option application is pure config construction, so the
// table exercises newConfig directly instead of paying for a compile per
// row.
func TestCompileOptionErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		opt     Option
		wantErr error
	}{
		{"target-unknown", WithTarget("vax-11"), ErrUnknownTarget},
		{"target-empty", WithTarget(""), ErrUnknownTarget},
		{"target-valid", WithTarget("amd-epyc"), nil},
		{"target-spec-nil", WithTargetSpec(nil), ErrBadOption},
		{"threads-negative", WithThreads(-1), ErrBadOption},
		{"threads-zero-is-default", WithThreads(0), nil},
		{"threads-valid", WithThreads(8), nil},
		// Options with no invalid inputs: every value must configure cleanly.
		{"level", WithOptLevel(LevelBaseline), nil},
		{"winograd-off", WithWinograd(false), nil},
		{"search", WithSearch(SearchOptions{MaxCands: 1}), nil},
		{"predict-only", WithPredictOnly(), nil},
		{"seed", WithSeed(0), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := newConfig([]Option{c.opt})
			if c.wantErr == nil {
				if cfg.err != nil {
					t.Fatalf("option errored: %v", cfg.err)
				}
				return
			}
			if !errors.Is(cfg.err, c.wantErr) {
				t.Fatalf("got %v, want %v", cfg.err, c.wantErr)
			}
		})
	}
}

// TestOptionErrorSurfacesThroughCompile pins the contract that a bad option
// fails the compile entry points before any graph work happens.
func TestOptionErrorSurfacesThroughCompile(t *testing.T) {
	if _, err := CompileGraph(smallCNN(1), WithThreads(-4)); !errors.Is(err, ErrBadOption) {
		t.Fatalf("CompileGraph: %v, want ErrBadOption", err)
	}
	if _, err := Compile("resnet-18", WithTarget("nope")); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("Compile: %v, want ErrUnknownTarget", err)
	}
}
