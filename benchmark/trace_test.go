package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Self time on a hand-built tree: overlapping children are merged, a child
// running past its parent is clipped, and a grandchild is charged to its own
// parent only.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: union [10,50)
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to [90,100)
		{ID: 5, Parent: 3, Name: "b.child", Start: 25, End: 45},
		{ID: 6, Name: "lonely", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 60}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestRecorderWritesOneSpanPerLine(t *testing.T) {
	rec := newRecorder()
	start := time.Now()
	parent := rec.reserve("loadgen.op", "7", 0, start)
	rt := rec.reserve("net.round_trip", "7", parent, start)
	rec.add("serve.handler", "7", rt, start, start.Add(time.Millisecond))
	rec.finishAs(rt, "net.round_trip_refused", start.Add(2*time.Millisecond))
	rec.finish(parent, start.Add(3*time.Millisecond))

	path := filepath.Join(t.TempDir(), "sub", "trace.jsonl")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != 3 {
		t.Fatalf("got %d spans, want 3", len(got))
	}
	if got[1].Name != "net.round_trip_refused" || got[1].Parent != got[0].ID || got[2].Parent != got[1].ID {
		t.Errorf("span tree not preserved: %+v", got)
	}
	for _, s := range got {
		if s.Req != "7" {
			t.Errorf("span %s lost its request id", s.Name)
		}
	}
	if d := got[0].duration(); d != 3*time.Millisecond {
		t.Errorf("reserved span duration = %v, want 3ms", d)
	}

	var none *recorder
	if id := none.reserve("x", "", 0, start); id != 0 || none.snapshot() != nil {
		t.Error("a nil recorder must record nothing")
	}
}
