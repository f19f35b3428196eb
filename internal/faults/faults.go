// Package faults is a hook-based fault-injection harness for the serving
// stack. Production code calls Fire (or WrapReader) at named sites; tests
// install hooks that delay, fail, panic, or tear reads at exactly those
// sites, scoped to one model by label. There are no build tags: when no hook
// is armed, a site costs one atomic load and nothing else, so the sites stay
// compiled into release binaries and the chaos suite exercises the very code
// that ships.
//
// Typical test usage:
//
//	defer faults.Reset()
//	faults.Inject(faults.SiteSessionRun, faults.OnLabel("tiny-cnn", faults.Panic("kernel blew up")))
//	faults.Inject(faults.SiteRegistryLoad, faults.Times(1, faults.Error(errTransient)))
//
// Hooks run on the goroutine that hit the site, so a Panic hook genuinely
// panics the executor and a Delay hook genuinely stalls the request.
package faults

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The named sites the serving stack exposes. Sites are plain strings so
// tests can add private ones, but production code should fire these.
const (
	// SiteSessionRun fires at the top of every Session execution; the label
	// is the module's graph name. A Panic hook here models a kernel panic.
	SiteSessionRun = "core.session.run"
	// SiteBatcherDispatch fires once a request holds its session, just
	// before it runs; the label is the model name. A Delay hook here slows
	// one model's runs without touching its kernels.
	SiteBatcherDispatch = "serve.batcher.dispatch"
	// SitePoolAcquire fires on every session-pool acquisition; the label is
	// the model name.
	SitePoolAcquire = "serve.pool.acquire"
	// SiteRegistryLoad fires before the registry asks its source for a
	// module; the label is the model name. An Error hook here models a
	// transient repository failure.
	SiteRegistryLoad = "serve.registry.load"
	// SiteBundleRead wraps the bundle file reader (WrapReader); the label is
	// the model name. A TornReader hook models a half-written bundle.
	SiteBundleRead = "artifact.bundle.read"
)

// Hook is one injected fault. It receives the site's label (typically the
// model name) and may sleep, panic, or return an error for the site to
// propagate. Returning nil lets execution continue unfaulted.
type Hook func(label string) error

// armed short-circuits Fire when nothing is injected; it counts installed
// hooks (reader hooks included) so arming is exact, not sticky.
var armed atomic.Int64

var (
	mu      sync.Mutex
	hooks   map[string][]*installed
	readers map[string][]*installedReader
	fired   map[string]uint64
)

type installed struct{ h Hook }

// ReaderHook transforms a reader at a wrapped site (label-scoped like Hook);
// returning r unchanged leaves the site unfaulted.
type ReaderHook func(label string, r io.Reader) io.Reader

type installedReader struct{ h ReaderHook }

// Inject installs a hook at a site and returns a remover. Multiple hooks at
// one site run in installation order until one returns a non-nil error.
func Inject(site string, h Hook) (remove func()) {
	mu.Lock()
	defer mu.Unlock()
	if hooks == nil {
		hooks = map[string][]*installed{}
	}
	in := &installed{h: h}
	hooks[site] = append(hooks[site], in)
	armed.Add(1)
	return func() { removeHook(site, in) }
}

func removeHook(site string, in *installed) {
	mu.Lock()
	defer mu.Unlock()
	hs := hooks[site]
	for i, cand := range hs {
		if cand == in {
			hooks[site] = append(hs[:i], hs[i+1:]...)
			armed.Add(-1)
			return
		}
	}
}

// InjectReader installs a reader transformer at a site wrapped with
// WrapReader, returning a remover.
func InjectReader(site string, h ReaderHook) (remove func()) {
	mu.Lock()
	defer mu.Unlock()
	if readers == nil {
		readers = map[string][]*installedReader{}
	}
	in := &installedReader{h: h}
	readers[site] = append(readers[site], in)
	armed.Add(1)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		rs := readers[site]
		for i, cand := range rs {
			if cand == in {
				readers[site] = append(rs[:i], rs[i+1:]...)
				armed.Add(-1)
				return
			}
		}
	}
}

// Reset removes every installed hook and clears the fire counters. Tests
// defer this so one test's faults never leak into the next.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, hs := range hooks {
		n += len(hs)
	}
	for _, rs := range readers {
		n += len(rs)
	}
	armed.Add(int64(-n))
	hooks = nil
	readers = nil
	fired = nil
}

// Fire runs the hooks installed at site, in order, stopping at the first
// non-nil error (which the caller propagates). With nothing injected it is a
// single atomic load.
func Fire(site, label string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	hs := append([]*installed(nil), hooks[site]...)
	if len(hs) > 0 {
		if fired == nil {
			fired = map[string]uint64{}
		}
		fired[site]++
	}
	mu.Unlock()
	for _, in := range hs {
		if err := in.h(label); err != nil {
			return err
		}
	}
	return nil
}

// WrapReader applies the reader hooks installed at site to r. With nothing
// injected it returns r untouched for one atomic load.
func WrapReader(site, label string, r io.Reader) io.Reader {
	if armed.Load() == 0 {
		return r
	}
	mu.Lock()
	rs := append([]*installedReader(nil), readers[site]...)
	if len(rs) > 0 {
		if fired == nil {
			fired = map[string]uint64{}
		}
		fired[site]++
	}
	mu.Unlock()
	for _, in := range rs {
		r = in.h(label, r)
	}
	return r
}

// Count reports how many times a site fired with at least one hook
// installed; test assertions use it to prove a site was actually reached.
func Count(site string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	return fired[site]
}

// Error returns a hook failing every fire with err.
func Error(err error) Hook {
	return func(string) error { return err }
}

// Panic returns a hook that panics with v, modeling a kernel/executor panic
// on the firing goroutine.
func Panic(v any) Hook {
	return func(string) error { panic(v) }
}

// Delay returns a hook that sleeps d and continues, modeling a slow kernel
// or a stalled dependency.
func Delay(d time.Duration) Hook {
	return func(string) error { time.Sleep(d); return nil }
}

// OnLabel scopes a hook to one label (model): other labels pass unfaulted.
func OnLabel(label string, h Hook) Hook {
	return func(l string) error {
		if l != label {
			return nil
		}
		return h(l)
	}
}

// Times limits a hook to its first n fires (label-matching fires, when
// wrapped inside OnLabel; raw fires otherwise), then passes unfaulted —
// the shape of a transient fault that heals.
func Times(n int, h Hook) Hook {
	var left atomic.Int64
	left.Store(int64(n))
	return func(l string) error {
		if left.Add(-1) < 0 {
			return nil
		}
		return h(l)
	}
}

// TornReader returns a reader hook that truncates the stream after n bytes,
// modeling a reader that observes a half-written file: the consumer sees a
// clean EOF where the payload should continue.
func TornReader(n int64) ReaderHook {
	return func(_ string, r io.Reader) io.Reader { return io.LimitReader(r, n) }
}

// String renders the currently installed sites, for debugging stuck tests.
func String() string {
	mu.Lock()
	defer mu.Unlock()
	return fmt.Sprintf("faults: %d hook site(s), %d reader site(s) armed", len(hooks), len(readers))
}
