package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/tensor"
)

// ErrInvalidPlan is the typed cause wrapped by every plan-parsing and
// plan-resolution failure (malformed JSON, truncated files, unknown layouts
// or algorithms, entries that do not match the graph). Callers branch with
// errors.Is(err, ErrInvalidPlan) instead of string matching; corrupted plan
// files must surface as this error, never as a panic.
var ErrInvalidPlan = errors.New("core: invalid plan")

// This file implements plan serialization: the optimization schemes a
// (possibly hours-long, in the paper's TVM setting) search produced can be
// exported and re-applied to a freshly built model without searching again —
// the compile-once/deploy-everywhere flow of the SageMaker Neo service the
// paper describes.

// PlanEntry is one convolution's serialized scheme. Convolutions are
// identified by their builder-assigned layer name, which is deterministic
// for a given model builder.
type PlanEntry struct {
	Conv    string `json:"conv"`
	Layout  string `json:"layout"` // "nchw" or "nchwc"
	ICBlock int    `json:"ic_bn,omitempty"`
	OCBlock int    `json:"oc_bn,omitempty"`
	RegN    int    `json:"reg_n,omitempty"`
	// Algorithm selects the convolution algorithm: "winograd" or "direct".
	// Absent (plans saved before the field existed) means direct.
	Algorithm string `json:"algorithm,omitempty"`
}

// PlanFile is the serialized compilation plan.
type PlanFile struct {
	Model   string      `json:"model"`
	Target  string      `json:"target"`
	Level   string      `json:"level"`
	Entries []PlanEntry `json:"entries"`
}

// planEntries serializes the module's chosen per-convolution schemes.
func (m *Module) planEntries() []PlanEntry {
	var entries []PlanEntry
	for _, n := range m.Graph.Convs() {
		e := PlanEntry{Conv: n.Name}
		switch n.Sched.Layout.Kind {
		case tensor.LayoutNCHWc:
			e.Layout = "nchwc"
			e.ICBlock = n.Sched.ICBlock
			e.OCBlock = n.Sched.OCBlock
			e.RegN = n.Sched.RegN
			if n.Sched.Algorithm == machine.AlgoWinograd {
				e.Algorithm = machine.AlgoWinograd.String()
			}
		default:
			e.Layout = "nchw"
		}
		entries = append(entries, e)
	}
	return entries
}

// SavePlan serializes the module's chosen per-convolution schemes as JSON.
func (m *Module) SavePlan(w io.Writer) error {
	pf := PlanFile{
		Model:   m.Graph.Name,
		Target:  m.Target.Name,
		Level:   m.Level.String(),
		Entries: m.planEntries(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pf)
}

// LoadPlan parses a serialized plan. Malformed or truncated plan content
// fails with ErrInvalidPlan; an error from the reader itself (I/O, not
// corruption) is passed through untyped so callers do not mistake a
// transient read failure for a bad plan file.
func LoadPlan(r io.Reader) (*PlanFile, error) {
	var pf PlanFile
	if err := json.NewDecoder(r).Decode(&pf); err != nil {
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		if errors.As(err, &syn) || errors.As(err, &typ) ||
			errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: decode: %v", ErrInvalidPlan, err)
		}
		return nil, fmt.Errorf("core: load plan: %w", err)
	}
	return &pf, nil
}

// Apply resolves the plan against a freshly built graph of the same model,
// returning a layout plan keyed by the graph's own conv nodes. Every
// convolution in the graph must have an entry; extra entries are an error so
// stale plans fail loudly.
func (pf *PlanFile) Apply(g *graph.Graph) (graph.LayoutPlan, error) {
	byName := make(map[string]PlanEntry, len(pf.Entries))
	for _, e := range pf.Entries {
		if _, dup := byName[e.Conv]; dup {
			return nil, fmt.Errorf("%w: duplicate entry for %q", ErrInvalidPlan, e.Conv)
		}
		byName[e.Conv] = e
	}
	plan := graph.LayoutPlan{}
	for _, n := range g.Convs() {
		e, ok := byName[n.Name]
		if !ok {
			return nil, fmt.Errorf("%w: no entry for convolution %q", ErrInvalidPlan, n.Name)
		}
		delete(byName, n.Name)
		algo := machine.AlgoDirect
		switch e.Algorithm {
		case "", machine.AlgoDirect.String():
			// Plans predating the algorithm field load as direct.
		case machine.AlgoWinograd.String():
			algo = machine.AlgoWinograd
		default:
			return nil, fmt.Errorf("%w: entry %q has unknown algorithm %q", ErrInvalidPlan, e.Conv, e.Algorithm)
		}
		var s machine.ConvSchedule
		switch e.Layout {
		case "nchwc":
			s = machine.ConvSchedule{
				Layout:  tensor.NCHWc(e.ICBlock),
				ICBlock: e.ICBlock, OCBlock: e.OCBlock,
				RegN: e.RegN, Algorithm: algo,
			}
			wl := graph.ConvWorkload(n)
			if err := wl.ValidateBlocks(s); err != nil {
				return nil, fmt.Errorf("%w: entry %q: %v", ErrInvalidPlan, e.Conv, err)
			}
			if algo == machine.AlgoWinograd && !wl.WinogradViable() {
				return nil, fmt.Errorf("%w: entry %q schedules winograd for a %dx%d stride-%dx%d convolution with %d group(s) (dense 3x3 stride-1 only)",
					ErrInvalidPlan, e.Conv, wl.KH, wl.KW, wl.StrideH, wl.StrideW, wl.GroupCount())
			}
		case "nchw":
			if algo == machine.AlgoWinograd {
				return nil, fmt.Errorf("%w: entry %q schedules winograd in layout %q (NCHW[x]c only)", ErrInvalidPlan, e.Conv, e.Layout)
			}
			s = machine.ConvSchedule{Layout: tensor.NCHW()}
		default:
			return nil, fmt.Errorf("%w: entry %q has unknown layout %q", ErrInvalidPlan, e.Conv, e.Layout)
		}
		plan[n] = s
	}
	if len(byName) != 0 {
		for name := range byName {
			return nil, fmt.Errorf("%w: entry %q matches no convolution in graph %q", ErrInvalidPlan, name, g.Name)
		}
	}
	return plan, nil
}

// CompileWithPlan compiles a graph using a previously saved plan instead of
// running any search. The target must match the plan's. Like Compile, it
// takes ownership of g, and an executable compile of a graph without weights
// fails with ErrNoWeights.
func CompileWithPlan(g *graph.Graph, t *machine.Target, pf *PlanFile, opts Options) (*Module, error) {
	if pf.Target != "" && pf.Target != t.Name {
		return nil, fmt.Errorf("%w: plan was produced for target %q, compiling for %q", ErrInvalidPlan, pf.Target, t.Name)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if !opts.NoPrepack {
		if err := checkWeights(g); err != nil {
			return nil, err
		}
	}
	if err := graph.RemoveDropout(g); err != nil {
		return nil, err
	}
	if !opts.DisableBNFold {
		if err := graph.FoldBatchNorms(g); err != nil {
			return nil, err
		}
	}
	if !opts.DisableFusion {
		if err := graph.FuseOps(g); err != nil {
			return nil, err
		}
	}
	plan, err := pf.Apply(g)
	if err != nil {
		return nil, err
	}
	if err := graph.AlterOpLayout(g, plan, true); err != nil {
		return nil, fmt.Errorf("core: alter op layout: %w", err)
	}
	return finalizeModule(g, t, OptGlobalSearch, nil, opts), nil
}
