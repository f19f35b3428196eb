package schedule

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// TestEveryCandidateRunsOnACheckedKernel audits the search space rather than
// the schedules the search happens to pick: every candidate Candidates emits
// for every unique convolution workload of resnet-18 and mobilenet-v1 —
// direct, depthwise and Winograd — runs on its blocked kernel and matches
// the NCHW reference within the documented 1e-3, at pool widths 1, 2 and 3
// (ragged range splits).
//
// Candidates are enumerated on the real workload and executed on a shrunken
// one: spatial dims above 9 become 9, so output widths of 9, 7 and 5 stay
// non-multiples of every reg_n, and each side keeps at most two channel
// blocks. The block sizes, reg_n, unroll_ker and the kernel geometry select
// the code path; the count of ic.outer/oc.outer iterations does not. -short
// runs a deterministic sample of each workload's candidates.
func TestEveryCandidateRunsOnACheckedKernel(t *testing.T) {
	tgt := machine.IntelSkylakeC5()
	pools := []ops.ParallelFor{ops.Serial}
	for _, width := range []int{2, 3} {
		p := threadpool.NewPool(width)
		defer p.Close()
		pools = append(pools, p.ParallelRange)
	}
	sample := 1
	if testing.Short() {
		sample = 7
	}

	seenWL := map[string]bool{}
	seenRun := map[string]bool{}
	runs := 0
	for _, name := range []string{"resnet-18", "mobilenet-v1"} {
		g, err := models.BuildShapeOnly(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes() {
			if !n.IsConv() {
				continue
			}
			wl := graph.ConvWorkload(n)
			if seenWL[wl.Key()] {
				continue
			}
			seenWL[wl.Key()] = true
			for i, s := range Candidates(wl, tgt) {
				if (i+len(seenWL))%sample != 0 {
					continue
				}
				small := shrink(wl, s)
				if key := small.Key() + "/" + s.String(); !seenRun[key] {
					seenRun[key] = true
					runs++
					auditCandidate(t, name+"/"+wl.Key(), small, s, pools)
				}
			}
		}
	}
	if len(seenWL) < 20 {
		t.Fatalf("audited %d unique conv workloads, want resnet-18's and mobilenet-v1's (>= 20)", len(seenWL))
	}
	t.Logf("%d unique workloads, %d distinct shrunken candidate runs × %d pool widths", len(seenWL), runs, len(pools))
}

// shrink returns wl with spatial dims capped at 9 and at most two channel
// blocks of schedule s per side (per group, for depthwise: the block is the
// group tile).
func shrink(wl machine.ConvWorkload, s machine.ConvSchedule) machine.ConvWorkload {
	wl.InH, wl.InW = min(wl.InH, 9), min(wl.InW, 9)
	if wl.Depthwise() {
		c := s.OCBlock * min(wl.InC/s.OCBlock, 2)
		wl.InC, wl.OutC, wl.Groups = c, c, c
		return wl
	}
	g := wl.GroupCount()
	wl.InC = g * s.ICBlock * min(wl.InC/g/s.ICBlock, 2)
	wl.OutC = g * s.OCBlock * min(wl.OutC/g/s.OCBlock, 2)
	return wl
}

func auditCandidate(t *testing.T, where string, wl machine.ConvWorkload, s machine.ConvSchedule, pools []ops.ParallelFor) {
	t.Helper()
	in := tensor.New(tensor.NCHW(), 1, wl.InC, wl.InH, wl.InW)
	in.FillRandom(1, 1)
	wt := tensor.New(tensor.OIHW(), wl.OutC, wl.InC/wl.GroupCount(), wl.KH, wl.KW)
	wt.FillRandom(2, 0.5)
	bias := make([]float32, wl.OutC)
	for i := range bias {
		bias[i] = float32(i%7)*0.1 - 0.3
	}
	attrs := ops.Conv2DAttrs{
		OutC: wl.OutC, KH: wl.KH, KW: wl.KW,
		StrideH: wl.StrideH, StrideW: wl.StrideW, PadH: wl.PadH, PadW: wl.PadW,
		Groups: wl.Groups,
	}
	epi := ops.Epilogue{Bias: bias, ReLU: true}
	ref := ops.Conv2DNCHW(in, wt, attrs, epi, nil)
	blockedIn := tensor.ToNCHWc(in, s.ICBlock)
	var run func(pf ops.ParallelFor) *tensor.Tensor
	switch {
	case s.Algorithm == machine.AlgoWinograd:
		u := ops.WinogradWeightTransformNCHWc(wt, s.ICBlock, s.OCBlock)
		run = func(pf ops.ParallelFor) *tensor.Tensor {
			return ops.Conv2DWinogradNCHWc(blockedIn, u, attrs, s.ICBlock, s.OCBlock, epi, pf)
		}
	case wl.Depthwise():
		packed := tensor.PackWeights(wt, 1, s.OCBlock)
		run = func(pf ops.ParallelFor) *tensor.Tensor {
			return ops.Conv2DDepthwiseNCHWc(blockedIn, packed, attrs, s.OCBlock, s.RegN, s.UnrollKer, epi, pf)
		}
	default:
		packed := tensor.PackWeights(wt, s.ICBlock, s.OCBlock)
		run = func(pf ops.ParallelFor) *tensor.Tensor {
			return ops.Conv2DNCHWc(blockedIn, packed, attrs, s.ICBlock, s.OCBlock, s.RegN, s.UnrollKer, epi, pf)
		}
	}
	var first *tensor.Tensor
	for width, pf := range pools {
		got := run(pf)
		if first == nil {
			first = got
			if plain := tensor.FromNCHWc(got); !tensor.AllClose(ref, plain, 1e-3) {
				t.Fatalf("%s as %v (shrunk to %s): max diff %g from the NCHW reference",
					where, s, wl.Key(), tensor.MaxAbsDiff(ref, plain))
			}
		} else if d := tensor.MaxAbsDiff(first, got); d != 0 {
			t.Fatalf("%s as %v (shrunk to %s): pool width %d differs from serial by %g",
				where, s, wl.Key(), width+1, d)
		}
	}
}
