package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (never from inside the program under test). Start and End are
// nanoseconds since the recorder was created. Parent is the ID of the span
// that caused this one (0 for a root); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends; a nil recorder (the
// untraced pass) records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID for use as a parent.
func (r *recorder) add(name, req string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
	return id
}

// reserve allocates a span whose children are recorded before it ends (a
// parent must exist before its children can name it); finish closes it.
func (r *recorder) reserve(name, req string, parent int, start time.Time) int {
	return r.add(name, req, parent, start, start)
}

func (r *recorder) finish(id int, end time.Time) { r.finishAs(id, "", end) }

// finishAs closes a reserved span under a new name, for spans whose kind is
// only known once they end (a request that turned out to be refused).
func (r *recorder) finishAs(id int, name string, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = int64(end.Sub(r.epoch))
	if name != "" {
		r.spans[id-1].Name = name
	}
	r.mu.Unlock()
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.add(name, "", parent, start, end)
	return end.Sub(start), err
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines, one span per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children (parallel
// lanes) are merged first so shared time is subtracted once, and a child is
// clipped to its parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// spansNamed returns the durations, in milliseconds, of every span with the
// given name.
func spansNamed(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.duration()))
		}
	}
	return out
}

func traceFile(outDir, workload string) string {
	return filepath.Join(outDir, fmt.Sprintf("trace-%s.jsonl", workload))
}
