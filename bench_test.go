// Package repro's benchmark harness regenerates every table and figure of
// the paper (via the machine-model simulators — the paper's EC2 targets are
// modeled, not the host) and additionally measures the real Go kernels for
// the ablations DESIGN.md calls out (layout, register blocking, fusion,
// thread pools, transform cost, search cost).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one experiment:
//
//	go test -bench=BenchmarkTable2a -benchmem
package repro

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/quant"
	"repro/internal/report"
	"repro/internal/schedule"
	"repro/internal/search"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// ---------------------------------------------------------------------------
// Paper experiments (simulated on the modeled targets).
// ---------------------------------------------------------------------------

func BenchmarkTable1FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if report.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// benchTable2 reports each model's simulated NeoCPU latency and the best
// baseline's, for one target.
func benchTable2(b *testing.B, t *machine.Target) {
	for _, model := range models.Names() {
		model := model
		b.Run(model, func(b *testing.B) {
			var neo, bestBase float64
			for i := 0; i < b.N; i++ {
				neo = 0
				bestBase = 0
				for _, e := range baselines.Engines() {
					if !baselines.Available(e, t) {
						continue
					}
					p, err := baselines.Predict(e, model, t, 0)
					if err != nil {
						b.Fatal(err)
					}
					if e == baselines.EngineNeoCPU {
						neo = p.Seconds
					} else if bestBase == 0 || p.Seconds < bestBase {
						bestBase = p.Seconds
					}
				}
			}
			b.ReportMetric(neo*1000, "neocpu-ms")
			b.ReportMetric(bestBase*1000, "best-baseline-ms")
			b.ReportMetric(bestBase/neo, "speedup")
		})
	}
}

func BenchmarkTable2a(b *testing.B) { benchTable2(b, machine.IntelSkylakeC5()) }
func BenchmarkTable2b(b *testing.B) { benchTable2(b, machine.AMDEpycM5a()) }
func BenchmarkTable2c(b *testing.B) { benchTable2(b, machine.ARMCortexA72()) }

func BenchmarkTable3(b *testing.B) {
	var rows []report.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = report.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.LayoutOpt, r.Model+"-layout-x")
		b.ReportMetric(r.TransformElim, r.Model+"-elim-x")
		b.ReportMetric(r.GlobalSearch, r.Model+"-search-x")
	}
}

func benchFigure4(b *testing.B, spec report.Figure4Spec) {
	var series []report.Figure4Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = report.Figure4(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	n := spec.Target.Cores - 1
	for _, s := range series {
		label := strings.ReplaceAll(strings.ReplaceAll(s.Label, " ", "-"), "/", "")
		b.ReportMetric(s.ImagesPerSec[n], label+"-img/s")
	}
}

func BenchmarkFigure4a(b *testing.B) { benchFigure4(b, report.Figure4Specs()[0]) }
func BenchmarkFigure4b(b *testing.B) { benchFigure4(b, report.Figure4Specs()[1]) }
func BenchmarkFigure4c(b *testing.B) { benchFigure4(b, report.Figure4Specs()[2]) }

// ---------------------------------------------------------------------------
// Ablation benches on the real Go kernels (host wall-clock).
// ---------------------------------------------------------------------------

// benchConvTensors is the shared mid-network ResNet convolution workload
// (64x28x28 -> 64, 3x3 stride 1 pad 1): deterministic random NCHW input,
// OIHW weight, and the convolution attributes.
func benchConvTensors() (*tensor.Tensor, *tensor.Tensor, ops.Conv2DAttrs) {
	in := tensor.New(tensor.NCHW(), 1, 64, 28, 28)
	in.FillRandom(1, 1)
	wt := tensor.New(tensor.OIHW(), 64, 64, 3, 3)
	wt.FillRandom(2, 0.5)
	return in, wt, ops.Conv2DAttrs{OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
}

// BenchmarkConvLayout compares the direct convolution in each data layout —
// the real-kernel counterpart of Table 3 row 2.
func BenchmarkConvLayout(b *testing.B) {
	in, wt, attrs := benchConvTensors()
	b.Run("NCHW", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ops.Conv2DNCHW(in, wt, attrs, ops.Epilogue{}, nil)
		}
	})
	b.Run("NHWC", func(b *testing.B) {
		nhwc := tensor.NCHWToNHWC(in)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops.Conv2DNHWC(nhwc, wt, attrs, ops.Epilogue{}, nil)
		}
	})
	for _, blk := range []int{4, 8, 16} {
		blk := blk
		b.Run(tensor.NCHWc(blk).String(), func(b *testing.B) {
			bi := tensor.ToNCHWc(in, blk)
			bw := tensor.PackWeights(wt, blk, blk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops.Conv2DNCHWc(bi, bw, attrs, blk, blk, 8, ops.Epilogue{}, nil)
			}
		})
	}
}

// BenchmarkConvRegN sweeps the register-blocking width (the reg_n knob of
// the schedule tuple).
func BenchmarkConvRegN(b *testing.B) {
	in, wt, attrs := benchConvTensors()
	bi := tensor.ToNCHWc(in, 8)
	bw := tensor.PackWeights(wt, 8, 8)
	for _, regN := range []int{2, 4, 8, 16, 32} {
		regN := regN
		b.Run("reg_n="+itoa(regN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ops.Conv2DNCHWc(bi, bw, attrs, 8, 8, regN, ops.Epilogue{}, nil)
			}
		})
	}
}

// BenchmarkConv3x3 measures the ResNet-18 3x3 layers single-threaded at the
// schedules the search plans for them: the stride-2 direct layer (64→128 @56,
// ic_bn=32, oc_bn=16, reg_n=16) and the four Winograd geometries at their
// searched blocks. The two geometries that take the weight-stationary walk,
// 256@14 and 512@7, also run on a 2-wide thread pool (the -2t rows): the
// tile-stationary walk splits threads over tile rows, so its per-thread work
// at one thread is not that of the two-thread inference. GFLOP/s counts
// direct-convolution FLOPs for both algorithms, so their rates compare as
// time.
func BenchmarkConv3x3(b *testing.B) {
	gflops := func(b *testing.B, c, oc, ohw int) {
		flops := 2 * float64(c) * float64(oc) * 9 * float64(ohw*ohw)
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	}
	b.Run("direct-s2/64to128@56", func(b *testing.B) {
		const c, oc, hw, icb, ocb, regN = 64, 128, 56, 32, 16, 16
		in := tensor.New(tensor.NCHW(), 1, c, hw, hw)
		in.FillRandom(1, 1)
		wt := tensor.New(tensor.OIHW(), oc, c, 3, 3)
		wt.FillRandom(2, 0.5)
		attrs := ops.Conv2DAttrs{OutC: oc, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
		bi := tensor.ToNCHWc(in, icb)
		bw := tensor.PackWeights(wt, icb, ocb)
		pad := tensor.New(tensor.NCHWc(icb), ops.PaddedShapeNCHWc(bi.Shape, attrs)...)
		dst := tensor.New(tensor.NCHWc(ocb), 1, oc/ocb, hw/2, hw/2, ocb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops.Conv2DNCHWcInto(dst, pad, bi, bw, attrs, icb, ocb, regN, ops.Epilogue{}, ops.Serial)
		}
		gflops(b, c, oc, hw/2)
	})
	pool := threadpool.NewPool(2)
	defer pool.Close()
	for _, g := range []struct {
		c, hw, icb, ocb, threads int
	}{{64, 56, 64, 32, 1}, {128, 28, 16, 32, 1}, {256, 14, 32, 32, 1}, {512, 7, 16, 16, 1}, {256, 14, 32, 32, 2}, {512, 7, 16, 16, 2}} {
		name, pf := "winograd/"+itoa(g.c)+"@"+itoa(g.hw), ops.ParallelFor(ops.Serial)
		if g.threads == 2 {
			name, pf = name+"-2t", pool.ParallelRange
		}
		b.Run(name, func(b *testing.B) {
			in := tensor.New(tensor.NCHW(), 1, g.c, g.hw, g.hw)
			in.FillRandom(1, 1)
			wt := tensor.New(tensor.OIHW(), g.c, g.c, 3, 3)
			wt.FillRandom(2, 0.5)
			attrs := ops.Conv2DAttrs{OutC: g.c, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
			bi := tensor.ToNCHWc(in, g.icb)
			u := ops.WinogradWeightTransformNCHWc(wt, g.icb, g.ocb)
			scratch := tensor.New(tensor.Flat(), ops.WinogradScratchShape(bi.Shape, attrs)...)
			dst := tensor.New(tensor.NCHWc(g.ocb), 1, g.c/g.ocb, g.hw, g.hw, g.ocb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops.Conv2DWinogradNCHWcInto(dst, scratch, bi, u, attrs, g.icb, g.ocb, ops.Epilogue{}, pf)
			}
			gflops(b, g.c, g.c, g.hw)
		})
	}
}

// BenchmarkConv1x1 measures the direct template on the MobileNet-V1 1x1
// layers that dominate its operator time, single-threaded at the schedule
// the search plans for them (ic_bn = oc_bn = 64, reg_n = 8): stride-1,
// unpadded, so they run as a GEMM over the flattened H·W plane on the rank-k
// microkernel.
func BenchmarkConv1x1(b *testing.B) {
	for _, g := range []struct{ c, hw int }{{512, 14}, {1024, 7}, {128, 56}} {
		b.Run(itoa(g.c)+"to"+itoa(g.c)+"@"+itoa(g.hw), func(b *testing.B) {
			in := tensor.New(tensor.NCHW(), 1, g.c, g.hw, g.hw)
			in.FillRandom(1, 1)
			wt := tensor.New(tensor.OIHW(), g.c, g.c, 1, 1)
			wt.FillRandom(2, 0.5)
			attrs := ops.Conv2DAttrs{OutC: g.c, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
			bi := tensor.ToNCHWc(in, 64)
			bw := tensor.PackWeights(wt, 64, 64)
			dst := tensor.New(tensor.NCHWc(64), 1, g.c/64, g.hw, g.hw, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops.Conv2DNCHWcInto(dst, nil, bi, bw, attrs, 64, 64, 8, ops.Epilogue{}, ops.Serial)
			}
			flops := 2 * float64(g.c) * float64(g.c) * float64(g.hw*g.hw)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkConvDepthwise measures the depthwise template on five of
// MobileNet-V1's 3x3 depthwise layers, single-threaded at the schedules the
// search plans for them (bn = 32, reg_n = 16 on the first; bn = 64 after),
// with the bias + ReLU epilogue the plan fuses into each.
func BenchmarkConvDepthwise(b *testing.B) {
	for _, g := range []struct{ c, hw, stride, bn, regN int }{
		{32, 112, 1, 32, 16}, {64, 112, 2, 64, 16}, {128, 56, 1, 64, 8}, {512, 14, 1, 64, 8}, {1024, 7, 1, 64, 8},
	} {
		name := itoa(g.c) + "@" + itoa(g.hw)
		if g.stride == 2 {
			name += "-s2"
		}
		b.Run(name, func(b *testing.B) {
			in := tensor.New(tensor.NCHW(), 1, g.c, g.hw, g.hw)
			in.FillRandom(1, 1)
			wt := tensor.New(tensor.OIHW(), g.c, 1, 3, 3)
			wt.FillRandom(2, 0.5)
			attrs := ops.Conv2DAttrs{OutC: g.c, KH: 3, KW: 3, StrideH: g.stride, StrideW: g.stride, PadH: 1, PadW: 1, Groups: g.c}
			bi := tensor.ToNCHWc(in, g.bn)
			bw := tensor.PackWeights(wt, 1, g.bn)
			pad := tensor.New(tensor.NCHWc(g.bn), ops.PaddedShapeNCHWc(bi.Shape, attrs)...)
			ohw, _ := attrs.OutSize(g.hw, g.hw)
			dst := tensor.New(tensor.NCHWc(g.bn), 1, g.c/g.bn, ohw, ohw, g.bn)
			bias := make([]float32, g.c)
			for i := range bias {
				bias[i] = float32(i%7)*0.1 - 0.3
			}
			epi := ops.Epilogue{Bias: bias, ReLU: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops.Conv2DDepthwiseNCHWcInto(dst, pad, bi, bw, attrs, g.bn, g.regN, epi, ops.Serial)
			}
			flops := 2 * float64(g.c) * 9 * float64(ohw*ohw)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkPool measures ResNet-18's stem max-pool as the search plans it —
// 3x3 window, stride 2, pad 1 over the stem convolution's 64×112×112 output
// in NCHW32c — single-threaded into a preallocated destination.
func BenchmarkPool(b *testing.B) {
	in := tensor.New(tensor.NCHW(), 1, 64, 112, 112)
	in.FillRandom(1, 1)
	bi := tensor.ToNCHWc(in, 32)
	attrs := ops.PoolAttrs{Kind: ops.MaxPool, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	dst := tensor.New(tensor.NCHWc(32), 1, 2, 56, 56, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops.Pool2DInto(dst, bi, attrs, ops.Serial)
	}
}

// BenchmarkFusion compares fused conv+bias+relu+residual epilogues against
// separate operator execution (Section 2.2's arithmetic-intensity argument).
func BenchmarkFusion(b *testing.B) {
	in, wt, attrs := benchConvTensors()
	bi := tensor.ToNCHWc(in, 8)
	bw := tensor.PackWeights(wt, 8, 8)
	bias := make([]float32, 64)
	res := tensor.New(tensor.NCHWc(8), 1, 8, 28, 28, 8)
	res.FillRandom(3, 1)
	b.Run("fused", func(b *testing.B) {
		epi := ops.Epilogue{Bias: bias, Residual: res, ReLU: true}
		for i := 0; i < b.N; i++ {
			ops.Conv2DNCHWc(bi, bw, attrs, 8, 8, 8, epi, nil)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := ops.Conv2DNCHWc(bi, bw, attrs, 8, 8, 8, ops.Epilogue{Bias: bias}, nil)
			out = ops.Add(out, res, nil)
			ops.ReLU(out, nil)
		}
	})
}

// BenchmarkLayoutTransform measures the packing kernels whose elimination is
// Section 3.2's subject.
func BenchmarkLayoutTransform(b *testing.B) {
	in := tensor.New(tensor.NCHW(), 1, 128, 56, 56)
	in.FillRandom(1, 1)
	b.Run("NCHW-to-NCHW16c", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.ToNCHWc(in, 16)
		}
	})
	blocked := tensor.ToNCHWc(in, 16)
	b.Run("NCHW16c-to-NCHW", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.FromNCHWc(blocked)
		}
	})
	b.Run("rechunk-16c-to-8c", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.RechunkNCHWc(blocked, 8)
		}
	})
	wt := tensor.New(tensor.OIHW(), 128, 128, 3, 3)
	b.Run("weight-prepack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.PackWeights(wt, 16, 16)
		}
	})
}

// BenchmarkThreadPool compares the parallel runtimes over a real convolution
// and over many tiny regions (the real-kernel counterpart of Figure 4; on a
// single-core host the curves flatten but the per-region overhead remains
// visible).
func BenchmarkThreadPool(b *testing.B) {
	in, wt, attrs := benchConvTensors()
	bi := tensor.ToNCHWc(in, 8)
	bw := tensor.PackWeights(wt, 8, 8)
	threads := runtime.GOMAXPROCS(0)
	if threads < 2 {
		threads = 2
	}
	b.Run("conv/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ops.Conv2DNCHWc(bi, bw, attrs, 8, 8, 8, ops.Epilogue{}, ops.Serial)
		}
	})
	b.Run("conv/pool", func(b *testing.B) {
		p := threadpool.NewPool(threads)
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops.Conv2DNCHWc(bi, bw, attrs, 8, 8, 8, ops.Epilogue{}, p.ParallelRange)
		}
	})
	b.Run("conv/omp", func(b *testing.B) {
		o := threadpool.NewOMPPool(threads)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops.Conv2DNCHWc(bi, bw, attrs, 8, 8, 8, ops.Epilogue{}, o.ParallelRange)
		}
	})
	var sink [64]int64
	bump := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			sink[j]++
		}
	}
	b.Run("tiny-regions/pool", func(b *testing.B) {
		p := threadpool.NewPool(threads)
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ParallelRange(64, bump)
		}
	})
	b.Run("tiny-regions/omp", func(b *testing.B) {
		o := threadpool.NewOMPPool(threads)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.ParallelRange(64, bump)
		}
	})
}

// BenchmarkConvAlgorithm compares the direct template against the Winograd
// F(2x2,3x3) kernels (the paper's Section 6 extension) on real Go code, in
// both the unblocked and the NCHW[x]c layouts. The blocked pair is the
// matchup the optimization-scheme search decides per layer: on ResNet-style
// 3x3 stride-1 workloads the winograd scheme's 2.25x multiply reduction
// should beat the direct template.
func BenchmarkConvAlgorithm(b *testing.B) {
	for _, blk := range []int{8, 16} {
		blk := blk
		// Both blocked variants preallocate every buffer (packed or
		// transformed weight, padding or transform scratch, destination) so
		// the timed loop measures only the kernel.
		b.Run("direct-NCHW"+itoa(blk)+"c", func(b *testing.B) {
			in, wt, attrs := benchConvTensors()
			bi := tensor.ToNCHWc(in, blk)
			bw := tensor.PackWeights(wt, blk, blk)
			pad := tensor.New(bi.Layout, ops.PaddedShapeNCHWc(bi.Shape, attrs)...)
			dst := tensor.New(tensor.NCHWc(blk), 1, attrs.OutC/blk, 28, 28, blk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops.Conv2DNCHWcInto(dst, pad, bi, bw, attrs, blk, blk, 8, ops.Epilogue{}, nil)
			}
		})
		b.Run("winograd-NCHW"+itoa(blk)+"c", func(b *testing.B) {
			in, wt, attrs := benchConvTensors()
			bi := tensor.ToNCHWc(in, blk)
			u := ops.WinogradWeightTransformNCHWc(wt, blk, blk)
			scratch := tensor.New(tensor.Flat(), ops.WinogradScratchShape(bi.Shape, attrs)...)
			dst := tensor.New(tensor.NCHWc(blk), 1, attrs.OutC/blk, 28, 28, blk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops.Conv2DWinogradNCHWcInto(dst, scratch, bi, u, attrs, blk, blk, ops.Epilogue{}, nil)
			}
		})
	}
	b.Run("winograd-f2x3-NCHW", func(b *testing.B) {
		in, wt, attrs := benchConvTensors()
		u := ops.WinogradWeightTransform(wt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops.Conv2DWinograd(in, u, attrs, ops.Epilogue{}, nil)
		}
	})
}

// BenchmarkConvInt8 compares fp32 and int8 blocked convolutions (Section 6
// INT8 extension). On the scalar Go host the int8 path pays conversion
// costs; the simulated ISA factors are reported by examples/quantized.
func BenchmarkConvInt8(b *testing.B) {
	in, wt, attrs := benchConvTensors()
	b.Run("fp32", func(b *testing.B) {
		bi := tensor.ToNCHWc(in, 8)
		bw := tensor.PackWeights(wt, 8, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops.Conv2DNCHWc(bi, bw, attrs, 8, 8, 8, ops.Epilogue{}, nil)
		}
	})
	b.Run("int8", func(b *testing.B) {
		qi := quant.PackActivationNCHWc(quant.Quantize(in), 8)
		qw := quant.PackWeightsOIHWio(quant.QuantizeWeightsPerChannel(wt), 8, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			quant.Conv2DInt8NCHWc(qi, qw, attrs, 8, 8, 8, ops.Epilogue{}, nil)
		}
	})
}

// BenchmarkLocalSearch measures the Section 3.3.1 exhaustive schedule search
// for one workload (cost-model evaluator).
func BenchmarkLocalSearch(b *testing.B) {
	t := machine.IntelSkylakeC5()
	wl := machine.ConvWorkload{InC: 128, InH: 28, InW: 28, OutC: 128, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	eval := schedule.CostModelEvaluator(t)
	for i := 0; i < b.N; i++ {
		schedule.LocalSearch(wl, t, eval)
	}
}

// BenchmarkGlobalSearch measures the DP and PBQP solvers on real model
// graphs (Section 3.3.2: "a typical DP search completes in 1 minute...
// the approximation algorithm completes in 10 seconds" — at TVM scale; the
// Go cost-model problems solve in milliseconds).
func BenchmarkGlobalSearch(b *testing.B) {
	t := machine.IntelSkylakeC5()
	db := schedule.NewDB()
	mkProblem := func(model string) *search.Problem {
		g, err := models.BuildShapeOnly(model)
		if err != nil {
			b.Fatal(err)
		}
		if err := graph.Optimize(g); err != nil {
			b.Fatal(err)
		}
		p, err := search.BuildProblem(g, t, search.BuildOptions{MaxCands: 10, DB: db, Threads: t.Cores})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	pRes := mkProblem("resnet-50")
	b.Run("dp/resnet-50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := search.DP(pRes, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pbqp/resnet-50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search.PBQP(pRes)
		}
	})
	pSSD := mkProblem("ssd-resnet-50")
	b.Run("pbqp/ssd-resnet-50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search.PBQP(pSSD)
		}
	})
}

// BenchmarkEndToEnd runs real inference through the compiled module on the
// host (small model: the full ResNet-18 in pure Go).
func BenchmarkEndToEnd(b *testing.B) {
	t := machine.IntelSkylakeC5()
	threads := runtime.GOMAXPROCS(0)
	for _, level := range []core.OptLevel{core.OptNone, core.OptTransformElim} {
		level := level
		b.Run("resnet-18/"+level.String(), func(b *testing.B) {
			m, err := core.Compile(models.MustBuild("resnet-18", 1), t,
				core.Options{Level: level, Threads: threads})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			in := tensor.New(tensor.NCHW(), 1, 3, 224, 224)
			in.FillRandom(1, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModuleRun and BenchmarkSessionRun compare the allocate-everything
// Module.Run path against the arena-backed Session on the same compiled
// model: the session's preallocated per-node buffers eliminate the per-call
// feature-map allocations (watch B/op and allocs/op).
func benchRunModule(b *testing.B) *core.Module {
	b.Helper()
	m, err := core.Compile(models.TinyResNet(1), machine.IntelSkylakeC5(),
		core.Options{Level: core.OptTransformElim, Threads: 1, Backend: machine.BackendSerial})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkModuleRun(b *testing.B) {
	m := benchRunModule(b)
	defer m.Close()
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionRun(b *testing.B) {
	m := benchRunModule(b)
	defer m.Close()
	s, err := m.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(1, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
	// The memory planner's footprint: one session's planned shared-slot arena
	// vs the naive one-buffer-per-node arena it replaced.
	st := s.PlanStats()
	b.ReportMetric(float64(st.ArenaBytes), "arena-B")
	b.ReportMetric(float64(st.NaiveArenaBytes), "naive-arena-B")
}

// BenchmarkSessionRunWinograd is BenchmarkSessionRun on a winograd-planned
// module: the global search schedules TinyResNet's 3x3 stride-1 convolutions
// with the Winograd algorithm, and the session arena (which sizes the
// winograd transform scratch at creation) must keep steady-state execution
// as allocation-free as the direct path.
func BenchmarkSessionRunWinograd(b *testing.B) {
	m, err := core.Compile(models.TinyResNet(1), machine.IntelSkylakeC5(),
		core.Options{Level: core.OptGlobalSearch, Threads: 1, Backend: machine.BackendSerial})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	var plan strings.Builder
	if err := m.SavePlan(&plan); err != nil {
		b.Fatal(err)
	}
	if !strings.Contains(plan.String(), `"algorithm": "winograd"`) {
		b.Fatal("global search did not schedule any winograd convolution; benchmark would not measure the winograd path")
	}
	s, err := m.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(1, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionRunScaling measures intra-op thread scaling of
// whole-model session execution: tiny-resnet recompiled at each thread count
// (so the schedule search re-picks block sizes for that width; the serial
// backend at 1) and timed on the host, one threads-<n> sub-benchmark per
// count. The thread axis is the powers of two up to the host's CPU count,
// plus the CPU count itself when it is not one. CI's scaling job reads the
// ns/op of this series.
func BenchmarkSessionRunScaling(b *testing.B) {
	counts := []int{1}
	for th := 2; th <= runtime.NumCPU(); th *= 2 {
		counts = append(counts, th)
	}
	if last := counts[len(counts)-1]; last != runtime.NumCPU() {
		counts = append(counts, runtime.NumCPU())
	}
	for _, th := range counts {
		th := th
		b.Run("threads-"+itoa(th), func(b *testing.B) {
			opts := core.Options{Level: core.OptGlobalSearch, Threads: th, Backend: machine.BackendPool}
			if th == 1 {
				opts.Backend = machine.BackendSerial
			}
			m, err := core.Compile(models.TinyResNet(1), machine.IntelSkylakeC5(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			s, err := m.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
			in.FillRandom(3, 1)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionRunBatch measures the amortized per-image cost of batched
// session execution (dispatch setup paid once per batch).
func BenchmarkSessionRunBatch(b *testing.B) {
	m := benchRunModule(b)
	defer m.Close()
	s, err := m.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	const batch = 8
	ins := make([]*tensor.Tensor, batch)
	for i := range ins {
		ins[i] = tensor.New(tensor.NCHW(), 1, 3, 32, 32)
		ins[i].FillRandom(uint64(i+1), 1)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunBatch(ctx, ins); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
