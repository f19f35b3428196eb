package schedule

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/machine"
)

var testWL = machine.ConvWorkload{
	InC: 32, InH: 14, InW: 14, OutC: 64, KH: 3, KW: 3,
	StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
}

func TestDivisors(t *testing.T) {
	got := divisors(64)
	want := []int{64, 32, 16, 8, 4, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("divisors(64) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("divisors(64) = %v, want %v", got, want)
		}
	}
	if d := divisors(3); len(d) != 2 || d[0] != 3 || d[1] != 1 {
		t.Fatalf("divisors(3) = %v", d)
	}
}

func TestCandidatesCoverSpace(t *testing.T) {
	tgt := machine.IntelSkylakeC5()
	cands := Candidates(testWL, tgt)
	// 32 has 6 divisors, 64 has 7; all <= 64. reg_n ∈ {32,16,8,4,2} is
	// trimmed by the 14-wide output to {8,4,2} plus the narrowest clamped
	// value (16, one full-width tile); 32 duplicates 16's clamp and is
	// dropped. Each of the 42 block pairs yields 4 direct schedules plus
	// 1 winograd candidate (the workload is 3x3 stride-1): 42*(4+1) = 210.
	if len(cands) != 210 {
		t.Fatalf("candidate count = %d, want 210", len(cands))
	}
	seen := map[string]bool{}
	winograd := 0
	for _, c := range cands {
		if testWL.InC%c.ICBlock != 0 || testWL.OutC%c.OCBlock != 0 {
			t.Fatalf("candidate %v does not divide channels", c)
		}
		// Above the output width only the narrowest clamped value survives.
		if c.Algorithm == machine.AlgoDirect && c.RegN > testWL.OutW() && c.RegN != 16 {
			t.Fatalf("candidate %v duplicates the clamped full-width tile (ow=%d)", c, testWL.OutW())
		}
		if c.Algorithm == machine.AlgoWinograd {
			winograd++
		}
		k := c.String()
		if seen[k] {
			t.Fatalf("duplicate candidate %v", c)
		}
		seen[k] = true
	}
	if winograd != 42 {
		t.Fatalf("winograd candidates = %d, want one per block pair (42)", winograd)
	}
}

func TestCandidatesSkipOversizedRegN(t *testing.T) {
	// A 1-wide output admits no reg_n candidate; the narrowest one is kept
	// (the kernel clamps it), so the space never collapses to empty.
	wl := testWL
	wl.InH, wl.InW = 5, 3
	wl.PadH, wl.PadW = 0, 0
	if wl.OutW() != 1 {
		t.Fatalf("test setup: OutW = %d, want 1", wl.OutW())
	}
	cands := Candidates(wl, machine.IntelSkylakeC5())
	if len(cands) == 0 {
		t.Fatal("no candidates for 1-wide output")
	}
	for _, c := range cands {
		if c.Algorithm == machine.AlgoDirect && c.RegN != 2 {
			t.Fatalf("candidate %v: want only the narrowest reg_n for a 1-wide output", c)
		}
	}
}

func TestCandidatesGateWinograd(t *testing.T) {
	// Strided and non-3x3 workloads must not receive winograd candidates.
	for _, wl := range []machine.ConvWorkload{
		{InC: 32, InH: 14, InW: 14, OutC: 64, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 32, InH: 14, InW: 14, OutC: 64, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{InC: 32, InH: 14, InW: 14, OutC: 64, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
	} {
		for _, c := range Candidates(wl, machine.IntelSkylakeC5()) {
			if c.Algorithm == machine.AlgoWinograd {
				t.Fatalf("workload %v got winograd candidate %v", wl.Key(), c)
			}
		}
	}
}

func TestCandidatesCapBlocks(t *testing.T) {
	wl := testWL
	wl.InC, wl.OutC = 512, 2048
	for _, c := range Candidates(wl, machine.IntelSkylakeC5()) {
		if c.ICBlock > 64 || c.OCBlock > 64 {
			t.Fatalf("block factor above cap: %v", c)
		}
	}
}

func TestLocalSearchSortedAndSensible(t *testing.T) {
	tgt := machine.IntelSkylakeC5()
	results := LocalSearch(testWL, tgt, CostModelEvaluator(tgt))
	for i := 1; i < len(results); i++ {
		if results[i].Time < results[i-1].Time {
			t.Fatalf("results not ascending at %d", i)
		}
	}
	best := results[0].Sched
	// On AVX-512 the winning schedule must use full 16-lane vectors.
	if best.OCBlock%tgt.VectorLanes != 0 {
		t.Fatalf("best schedule %v does not fill vector lanes", best)
	}
	// On a 3x3 stride-1 workload with ample channels the 2.25x multiply
	// reduction should put a winograd scheme on top.
	if best.Algorithm != machine.AlgoWinograd {
		t.Fatalf("best schedule %v is not winograd on a 3x3 stride-1 workload", best)
	}
	// The best direct schedule must still hide FMA latency with enough
	// accumulators.
	for _, r := range results {
		if r.Sched.Algorithm != machine.AlgoDirect {
			continue
		}
		if r.Sched.RegN < tgt.FMALatency*tgt.FMAPerCycle/2 {
			t.Fatalf("best direct schedule %v has too few accumulators", r.Sched)
		}
		break
	}
}

func TestLocalSearchBeatsNaiveChoice(t *testing.T) {
	tgt := machine.ARMCortexA72()
	results := LocalSearch(testWL, tgt, CostModelEvaluator(tgt))
	best := results[0].Time
	worst := results[len(results)-1].Time
	if worst/best < 1.5 {
		t.Fatalf("search space too flat: best %v worst %v", best, worst)
	}
}

func TestBestByBlockPair(t *testing.T) {
	tgt := machine.IntelSkylakeC5()
	results := LocalSearch(testWL, tgt, CostModelEvaluator(tgt))
	pairs := BestByBlockPair(results)
	// 6 ic divisors * 7 oc divisors = 42 pairs.
	if len(pairs) != 42 {
		t.Fatalf("pair count = %d, want 42", len(pairs))
	}
	// Must stay ascending and unique per pair.
	seen := map[[2]int]bool{}
	for i, r := range pairs {
		key := [2]int{r.Sched.ICBlock, r.Sched.OCBlock}
		if seen[key] {
			t.Fatalf("pair %v repeated", key)
		}
		seen[key] = true
		if i > 0 && pairs[i].Time < pairs[i-1].Time {
			t.Fatal("pairs not ascending")
		}
	}
	// The overall best must survive the reduction.
	if pairs[0].Time != results[0].Time {
		t.Fatal("best result lost in pair reduction")
	}
}

func TestDBMemoizes(t *testing.T) {
	tgt := machine.IntelSkylakeC5()
	db := NewDB()
	calls := 0
	eval := func(wl machine.ConvWorkload, s machine.ConvSchedule) float64 {
		calls++
		return CostModelEvaluator(tgt)(wl, s)
	}
	r1 := db.Search(tgt, testWL, eval)
	n := calls
	r2 := db.Search(tgt, testWL, eval)
	if calls != n {
		t.Fatal("second search must hit the memo")
	}
	if len(r1) != len(r2) || r1[0] != r2[0] {
		t.Fatal("memoized results differ")
	}
	if db.Len() != 1 {
		t.Fatalf("db len = %d", db.Len())
	}
	// Different target: separate entry.
	db.Search(machine.ARMCortexA72(), testWL, eval)
	if db.Len() != 2 {
		t.Fatalf("db len = %d, want 2", db.Len())
	}
}

func TestDBSaveLoadRoundTrip(t *testing.T) {
	tgt := machine.IntelSkylakeC5()
	db := NewDB()
	db.Search(tgt, testWL, CostModelEvaluator(tgt))
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Databases written by the builds that searched a parallel grain carry a
	// "grain" key per entry, and those written by the builds that searched
	// kernel unrolling an "unroll_ker" key; both are ignored on read.
	saved := buf.String()
	withGrain := strings.ReplaceAll(saved, `"time":`, `"grain": 4, "time":`)
	withUnroll := strings.ReplaceAll(saved, `"time":`, `"unroll_ker": true, "time":`)
	if withGrain == saved || withUnroll == saved {
		t.Fatal("test setup: no entry to add a key to")
	}
	r1, _ := db.Lookup(tgt, testWL)
	db2 := NewDB()
	for name, doc := range map[string]string{"current": saved, "grain-bearing": withGrain, "unroll_ker-bearing": withUnroll} {
		if err := db2.Load(strings.NewReader(doc)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r2, ok := db2.Lookup(tgt, testWL)
		if !ok || len(r1) != len(r2) {
			t.Fatalf("%s: round trip lost entries", name)
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("%s: entry %d differs: %v vs %v", name, i, r1[i], r2[i])
			}
		}
	}
	if err := db2.Load(bytes.NewBufferString("{broken")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestMeasuredEvaluatorRuns(t *testing.T) {
	// A tiny workload measured for real: the blocked kernel must execute and
	// return a positive time.
	wl := machine.ConvWorkload{InC: 8, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	eval := MeasuredEvaluator(2)
	s := machine.ConvSchedule{ICBlock: 4, OCBlock: 4, RegN: 4}
	got := eval(wl, s)
	if got <= 0 {
		t.Fatalf("measured time = %v", got)
	}
}

func TestDBConcurrentAccess(t *testing.T) {
	tgt := machine.IntelSkylakeC5()
	db := NewDB()
	eval := CostModelEvaluator(tgt)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			wl := testWL
			wl.OutC = 16 << (i % 3)
			db.Search(tgt, wl, eval)
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if db.Len() != 3 {
		t.Fatalf("db len = %d, want 3", db.Len())
	}
}
