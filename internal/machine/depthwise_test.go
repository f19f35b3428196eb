package machine

import (
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestGroupedWorkloadAccounting pins the grouped workload arithmetic: FLOPs
// and weight bytes shrink by the group count, dense keys stay stable, grouped
// keys are distinct, and winograd is gated off.
func TestGroupedWorkloadAccounting(t *testing.T) {
	dense := ConvWorkload{InC: 32, InH: 14, InW: 14, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	dw := dense
	dw.Groups = 32

	if got, want := dw.FLOPs(), dense.FLOPs()/32; got != want {
		t.Fatalf("depthwise FLOPs = %g, want dense/32 = %g", got, want)
	}
	if !dw.Depthwise() {
		t.Fatal("Groups == InC == OutC must classify as depthwise")
	}
	if dense.Depthwise() || dense.GroupCount() != 1 {
		t.Fatal("dense workload misclassified")
	}
	if dw.Bytes() >= dense.Bytes() {
		t.Fatal("depthwise weight bytes must shrink")
	}
	if strings.Contains(dense.Key(), "-g") {
		t.Fatalf("dense key %q must not carry a group suffix (schedule DBs would be invalidated)", dense.Key())
	}
	if !strings.HasSuffix(dw.Key(), "-g32") {
		t.Fatalf("depthwise key %q must carry the group suffix", dw.Key())
	}
	if dense.Key() == dw.Key() {
		t.Fatal("dense and depthwise workloads must not collide in the schedule DB")
	}
	if dw.WinogradViable() {
		t.Fatal("winograd must not be viable on depthwise workloads")
	}
	grouped := dense
	grouped.Groups = 4
	if grouped.WinogradViable() {
		t.Fatal("winograd must not be viable on grouped workloads")
	}
	if !dense.WinogradViable() {
		t.Fatal("dense 3x3 stride-1 control must stay winograd-viable")
	}
}

// TestDepthwiseConvTime checks the cost model prices the depthwise template
// sanely: positive, cheaper than the equivalent dense convolution (32x fewer
// FLOPs must show through even at depthwise's lower efficiency ceiling), and
// never below the memory floor.
func TestDepthwiseConvTime(t *testing.T) {
	tgt := IntelSkylakeC5()
	dense := ConvWorkload{InC: 128, InH: 28, InW: 28, OutC: 128, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	dw := dense
	dw.Groups = 128
	s := ConvSchedule{Layout: tensor.NCHWc(16), ICBlock: 16, OCBlock: 16, RegN: 16}

	td := tgt.ConvTime(dense, s, 1, BackendSerial, 1)
	tw := tgt.ConvTime(dw, s, 1, BackendSerial, 1)
	if tw <= 0 || td <= 0 {
		t.Fatalf("non-positive times: dense %g, depthwise %g", td, tw)
	}
	if tw >= td {
		t.Fatalf("depthwise (%g s) must be cheaper than dense (%g s)", tw, td)
	}
	floor := dw.Bytes() / (tgt.MemBWGBs * 1e9)
	if tw < floor {
		t.Fatalf("depthwise time %g below raw bandwidth floor %g", tw, floor)
	}
}
