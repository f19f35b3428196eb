package serve

// This file implements the model repository backed by a directory of
// artifact bundles: each <name>.neob file (cmd/neocpu-compile -o) is one
// loadable model, with an optional <name>.config.json sidecar tuning its
// serving stack. This is the compile-once/deploy-everywhere half of the
// paper's serving story — the serving host never searches or packs, it
// deserializes finished schedules and weights.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// BundleExt is the artifact-bundle filename extension a repository directory
// is scanned for.
const BundleExt = ".neob"

// DirSource is a ModelSource over a directory of artifact bundles. The model
// name is the filename stem: models/resnet-50.neob serves as "resnet-50".
// The directory is re-listed on every List call, so bundles dropped in after
// boot become loadable without a restart.
type DirSource struct {
	// Dir is the repository directory.
	Dir string
	// Resolve rebuilds model graph structure by name during bundle loading;
	// models.ResolveGraph in the shipped binaries.
	Resolve core.GraphResolver
}

// List returns the model names (filename stems) of every bundle in the
// directory, sorted.
func (d *DirSource) List() ([]string, error) {
	entries, err := os.ReadDir(d.Dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), BundleExt) {
			continue
		}
		names = append(names, strings.TrimSuffix(e.Name(), BundleExt))
	}
	sort.Strings(names)
	return names, nil
}

// Load opens the named bundle and deserializes it into an executable module
// — plan re-applied, packed weights installed, no search.
func (d *DirSource) Load(name string, opts core.Options) (*core.Module, error) {
	if strings.ContainsAny(name, `/\`) || name == "." || name == ".." {
		// Model names come off the URL path; never let them escape Dir.
		return nil, fmt.Errorf("serve: invalid model name %q", name)
	}
	f, err := os.Open(filepath.Join(d.Dir, name+BundleExt))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The fault site wraps the byte stream, so injected torn reads exercise
	// the same truncation path a bundle observed mid-write would take.
	return core.LoadBundle(faults.WrapReader(faults.SiteBundleRead, name, f), d.Resolve, opts)
}

// sidecarConfig is the on-disk shape of a <name>.config.json sidecar. All
// fields are optional; absent ones fall back to the registry default.
// Unknown keys are ignored, so sidecars that still carry the max_batch,
// max_latency_ms and arena_budget keys of older servers load unchanged.
type sidecarConfig struct {
	PoolSize   *int `json:"pool_size"`
	QueueDepth *int `json:"queue_depth"`
	// RequestTimeoutMS is the model's default per-request deadline budget;
	// negative disables the server-side budget.
	RequestTimeoutMS *float64 `json:"request_timeout_ms"`
	// MaxBodyBytes caps infer request bodies (0 derives from the input
	// signature).
	MaxBodyBytes *int64 `json:"max_body_bytes"`
}

// Config implements ConfigSource: per-model serving configuration from a
// <name>.config.json sidecar next to the bundle.
func (d *DirSource) Config(name string) (Config, bool, error) {
	if strings.ContainsAny(name, `/\`) || name == "." || name == ".." {
		return Config{}, false, fmt.Errorf("serve: invalid model name %q", name)
	}
	raw, err := os.ReadFile(filepath.Join(d.Dir, name+".config.json"))
	if os.IsNotExist(err) {
		return Config{}, false, nil
	}
	if err != nil {
		return Config{}, false, err
	}
	var sc sidecarConfig
	if err := json.Unmarshal(raw, &sc); err != nil {
		return Config{}, false, fmt.Errorf("serve: %s.config.json: %w", name, err)
	}
	var c Config
	if sc.PoolSize != nil {
		c.PoolSize = *sc.PoolSize
	}
	if sc.QueueDepth != nil {
		c.QueueDepth = *sc.QueueDepth
	}
	if sc.RequestTimeoutMS != nil {
		if *sc.RequestTimeoutMS < 0 {
			c.RequestTimeout = NoTimeout
		} else {
			c.RequestTimeout = time.Duration(*sc.RequestTimeoutMS * float64(time.Millisecond))
		}
	}
	if sc.MaxBodyBytes != nil {
		c.MaxBodyBytes = *sc.MaxBodyBytes
	}
	return c, true, nil
}
