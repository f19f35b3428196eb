// Package schedule implements the local optimization-scheme search of
// Section 3.3.1: enumerating candidate convolution schedules
// (ic_bn, oc_bn, reg_n), evaluating them (against the machine cost model or
// by live measurement of the Go kernels), and memoizing the results in a
// per-target database keyed by convolution workload so repeated workloads
// across models are never searched twice.
package schedule

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Result is one evaluated schedule.
type Result struct {
	Sched machine.ConvSchedule
	// Time is the predicted or measured single-run execution time in
	// seconds.
	Time float64
}

// regNCandidates is the paper's reg_n candidate list (Section 3.3.1 step 2).
var regNCandidates = []int{32, 16, 8, 4, 2}

// divisors returns all positive divisors of n in descending order (the
// paper's step 1: "we include all factors of the number of channels").
func divisors(n int) []int {
	var d []int
	for i := n; i >= 1; i-- {
		if n%i == 0 {
			d = append(d, i)
		}
	}
	return d
}

// Candidates enumerates the search space for one workload on one target.
// Block factors are capped at 64 to keep the packed weight slab addressable;
// the paper's channel counts (3..2048) yield at most a few hundred
// combinations per workload ("the number of pairs is bound to 100").
//
// Two refinements over the plain cross product:
//
//   - reg_n values wider than the output width all clamp to the same
//     single full-width tile in the kernel, so only the narrowest such
//     value is kept (it covers out_width in one tile — a genuinely
//     distinct schedule from any reg_n <= out_width); the wider ones are
//     duplicates of it and only waste search time.
//   - for 3x3 stride-1 workloads, each block pair additionally gets one
//     Winograd candidate (the algorithm is a searched dimension of the
//     scheme; the Winograd kernel has no reg_n knob).
//
// Grouped convolutions restrict the block domains so channel blocks never
// straddle a group: ic_bn ranges over divisors of in_channels/groups and
// oc_bn over divisors of out_channels/groups. Depthwise convolutions further
// tie the pair — output lane v of a channel block reads input lane v of the
// same block, so ic_bn must equal oc_bn — and never get Winograd candidates.
func Candidates(wl machine.ConvWorkload, t *machine.Target) []machine.ConvSchedule {
	ow := wl.OutW()
	regNs := make([]int, 0, len(regNCandidates))
	clamped := 0
	for _, rn := range regNCandidates { // descending
		if rn <= ow {
			regNs = append(regNs, rn)
		} else {
			clamped = rn // ends at the narrowest candidate above ow
		}
	}
	if clamped != 0 {
		regNs = append(regNs, clamped)
	}
	if wl.Depthwise() {
		var out []machine.ConvSchedule
		for _, bn := range divisors(wl.InC) {
			if bn > 64 {
				continue
			}
			for _, rn := range regNs {
				out = append(out, machine.ConvSchedule{
					Layout:  tensor.NCHWc(bn),
					ICBlock: bn, OCBlock: bn,
					RegN: rn,
				})
			}
		}
		return out
	}
	winograd := wl.WinogradViable()
	var out []machine.ConvSchedule
	for _, ic := range divisors(wl.InC / wl.GroupCount()) {
		if ic > 64 {
			continue
		}
		for _, oc := range divisors(wl.OutC / wl.GroupCount()) {
			if oc > 64 {
				continue
			}
			for _, rn := range regNs {
				out = append(out, machine.ConvSchedule{
					Layout:  tensor.NCHWc(ic),
					ICBlock: ic, OCBlock: oc,
					RegN: rn,
				})
			}
			if winograd {
				out = append(out, machine.ConvSchedule{
					Layout:  tensor.NCHWc(ic),
					ICBlock: ic, OCBlock: oc,
					RegN:      1,
					Algorithm: machine.AlgoWinograd,
				})
			}
		}
	}
	return out
}

// Evaluator scores one schedule for one workload, returning seconds.
type Evaluator func(wl machine.ConvWorkload, s machine.ConvSchedule) float64

// CostModelEvaluator predicts single-thread execution time with the machine
// model. This is the default evaluator: it is deterministic and fast enough
// to exhaust the space for every convolution of every model.
func CostModelEvaluator(t *machine.Target) Evaluator {
	return func(wl machine.ConvWorkload, s machine.ConvSchedule) float64 {
		return t.ConvTime(wl, s, 1, machine.BackendSerial, 1)
	}
}

// MeasuredEvaluator times the real Go kernel. Each evaluation runs `trials`
// times and keeps the minimum, mirroring the paper's repeated-measurement
// averaging to cancel OS interference. Only its unit test calls it today
// (examples/autotune and every compile use CostModelEvaluator); exhaustive
// measured search over full models is as slow in Go as the paper's 6-hour
// Skylake search was in TVM.
func MeasuredEvaluator(trials int) Evaluator {
	if trials < 1 {
		trials = 1
	}
	return func(wl machine.ConvWorkload, s machine.ConvSchedule) float64 {
		in := tensor.New(tensor.NCHW(), 1, wl.InC, wl.InH, wl.InW)
		in.FillRandom(1, 1)
		wt := tensor.New(tensor.OIHW(), wl.OutC, wl.InC/wl.GroupCount(), wl.KH, wl.KW)
		wt.FillRandom(2, 1)
		attrs := ops.Conv2DAttrs{
			OutC: wl.OutC, KH: wl.KH, KW: wl.KW,
			StrideH: wl.StrideH, StrideW: wl.StrideW, PadH: wl.PadH, PadW: wl.PadW,
			Groups: wl.Groups,
		}
		blockedIn := tensor.ToNCHWc(in, s.ICBlock)
		run := func() {}
		switch {
		case s.Algorithm == machine.AlgoWinograd:
			u := ops.WinogradWeightTransformNCHWc(wt, s.ICBlock, s.OCBlock, nil)
			run = func() {
				ops.Conv2DWinogradNCHWc(blockedIn, u, attrs, s.ICBlock, s.OCBlock, ops.Epilogue{}, nil)
			}
		case wl.Depthwise():
			packed := tensor.PackWeights(wt, 1, s.OCBlock)
			run = func() {
				ops.Conv2DDepthwiseNCHWc(blockedIn, packed, attrs, s.OCBlock, s.RegN, ops.Epilogue{}, nil)
			}
		default:
			blockedWt := tensor.PackWeights(wt, s.ICBlock, s.OCBlock)
			run = func() {
				ops.Conv2DNCHWc(blockedIn, blockedWt, attrs, s.ICBlock, s.OCBlock, s.RegN, ops.Epilogue{}, nil)
			}
		}
		best := 0.0
		for i := 0; i < trials; i++ {
			start := time.Now()
			run()
			el := time.Since(start).Seconds()
			if i == 0 || el < best {
				best = el
			}
		}
		return best
	}
}

// LocalSearch walks the whole candidate space for a workload and returns
// results in ascending execution-time order (Section 3.3.1 step 4).
func LocalSearch(wl machine.ConvWorkload, t *machine.Target, eval Evaluator) []Result {
	cands := Candidates(wl, t)
	results := make([]Result, 0, len(cands))
	for _, s := range cands {
		results = append(results, Result{Sched: s, Time: eval(wl, s)})
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Time < results[j].Time })
	return results
}

// BestByBlockPair reduces a sorted result list to the best result for each
// (ic_bn, oc_bn) pair. These pairs are the candidate schemes the global
// search chooses between (Section 3.3.2: "each CONV has a number of
// candidate schemes specified by different (ic_bn and oc_bn) pairs").
func BestByBlockPair(results []Result) []Result {
	seen := map[[2]int]bool{}
	var out []Result
	for _, r := range results {
		key := [2]int{r.Sched.ICBlock, r.Sched.OCBlock}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
	}
	return out
}

// DB memoizes local-search results per (target, workload). It is safe for
// concurrent use.
type DB struct {
	mu      sync.Mutex
	entries map[string][]Result
}

// NewDB creates an empty schedule database.
func NewDB() *DB { return &DB{entries: map[string][]Result{}} }

func dbKey(t *machine.Target, wl machine.ConvWorkload) string {
	return t.Name + "/" + wl.Key()
}

// Lookup returns the memoized results for a workload, if present.
func (db *DB) Lookup(t *machine.Target, wl machine.ConvWorkload) ([]Result, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.entries[dbKey(t, wl)]
	return r, ok
}

// Search returns the sorted local-search results for the workload, running
// the search on a miss and memoizing it.
func (db *DB) Search(t *machine.Target, wl machine.ConvWorkload, eval Evaluator) []Result {
	key := dbKey(t, wl)
	db.mu.Lock()
	if r, ok := db.entries[key]; ok {
		db.mu.Unlock()
		return r
	}
	db.mu.Unlock()
	// Search outside the lock: evaluations may be slow (measured mode).
	r := LocalSearch(wl, t, eval)
	db.mu.Lock()
	db.entries[key] = r
	db.mu.Unlock()
	return r
}

// Len returns the number of memoized workloads.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.entries)
}

// dbJSON is the serialized form.
type dbJSON struct {
	Entries map[string][]resultJSON `json:"entries"`
}

type resultJSON struct {
	ICBlock   int     `json:"ic_bn"`
	OCBlock   int     `json:"oc_bn"`
	RegN      int     `json:"reg_n"`
	LayoutX   int     `json:"layout_block"`
	Algorithm string  `json:"algorithm,omitempty"` // "winograd"; absent means direct
	Time      float64 `json:"time"`
}

// Save writes the database as JSON (the paper: "we can maintain a database
// to store the results for every convolution workload on every CPU type").
func (db *DB) Save(w io.Writer) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := dbJSON{Entries: map[string][]resultJSON{}}
	for k, rs := range db.entries {
		js := make([]resultJSON, len(rs))
		for i, r := range rs {
			js[i] = resultJSON{
				ICBlock: r.Sched.ICBlock, OCBlock: r.Sched.OCBlock,
				RegN: r.Sched.RegN, LayoutX: r.Sched.Layout.BlockC, Time: r.Time,
			}
			if r.Sched.Algorithm == machine.AlgoWinograd {
				js[i].Algorithm = machine.AlgoWinograd.String()
			}
		}
		out.Entries[k] = js
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load replaces the database contents from JSON.
func (db *DB) Load(r io.Reader) error {
	var in dbJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("schedule: load db: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.entries = map[string][]Result{}
	for k, js := range in.Entries {
		rs := make([]Result, len(js))
		for i, j := range js {
			algo := machine.AlgoDirect
			if j.Algorithm == machine.AlgoWinograd.String() {
				algo = machine.AlgoWinograd
			}
			rs[i] = Result{
				Sched: machine.ConvSchedule{
					Layout:  tensor.NCHWc(j.LayoutX),
					ICBlock: j.ICBlock, OCBlock: j.OCBlock,
					RegN: j.RegN, Algorithm: algo,
				},
				Time: j.Time,
			}
		}
		db.entries[k] = rs
	}
	return nil
}
