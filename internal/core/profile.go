package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// OpTiming is one node's measured execution time from a profiled run.
type OpTiming struct {
	Node    *graph.Node
	Elapsed time.Duration
}

// Profile is the per-operator breakdown of one real inference.
type Profile struct {
	Total   time.Duration
	Timings []OpTiming
}

// ByKind aggregates the profile per operator kind, descending by time.
func (p *Profile) ByKind() []struct {
	Kind    graph.OpKind
	Elapsed time.Duration
	Count   int
} {
	agg := map[graph.OpKind]*struct {
		d time.Duration
		c int
	}{}
	for _, t := range p.Timings {
		e, ok := agg[t.Node.Op]
		if !ok {
			e = &struct {
				d time.Duration
				c int
			}{}
			agg[t.Node.Op] = e
		}
		e.d += t.Elapsed
		e.c++
	}
	out := make([]struct {
		Kind    graph.OpKind
		Elapsed time.Duration
		Count   int
	}, 0, len(agg))
	for k, e := range agg {
		out = append(out, struct {
			Kind    graph.OpKind
			Elapsed time.Duration
			Count   int
		}{k, e.d, e.c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Elapsed > out[j].Elapsed })
	return out
}

// String renders the aggregate breakdown.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %v over %d ops\n", p.Total.Round(time.Microsecond), len(p.Timings))
	for _, e := range p.ByKind() {
		pct := 100 * float64(e.Elapsed) / float64(p.Total)
		fmt.Fprintf(&b, "  %-18s %10v  %5.1f%%  (%d ops)\n",
			e.Kind, e.Elapsed.Round(time.Microsecond), pct, e.Count)
	}
	return b.String()
}

// RunProfiled executes one inference like Run while timing every operator.
// It returns the outputs and the profile, whose timings follow the execution
// walk. A profiled run goes through the same executor, fault site and panic
// boundary as Session.Run on a fresh session; timing adds one clock read per
// step, so profiled latency slightly exceeds Run latency.
func (m *Module) RunProfiled(input *tensor.Tensor) ([]*tensor.Tensor, *Profile, error) {
	if err := m.checkInput(input); err != nil {
		return nil, nil, err
	}
	s, err := m.NewSession()
	if err != nil {
		return nil, nil, err
	}
	elapsed := make([]time.Duration, len(m.program))
	start := time.Now()
	if err := s.safeRun(context.Background(), input, elapsed); err != nil {
		return nil, nil, err
	}
	prof := &Profile{Total: time.Since(start), Timings: make([]OpTiming, 0, len(m.program))}
	for _, level := range m.plan.levels {
		for _, i := range level {
			prof.Timings = append(prof.Timings, OpTiming{Node: m.program[i], Elapsed: elapsed[i]})
		}
	}
	outs := make([]*tensor.Tensor, len(m.Graph.Outputs))
	for i, o := range m.Graph.Outputs {
		outs[i] = s.vals[m.slot[o]]
	}
	return outs, prof, nil
}
