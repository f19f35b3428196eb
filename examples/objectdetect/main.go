// Object detection with a compact SSD: a multi-scale detector with the same
// head structure as the paper's SSD-ResNet-50 (class/location convolutions
// per scale feeding multibox decoding and NMS), sized so the pure-Go kernels
// run in a second. The custom graph compiles through neocpu.CompileGraph;
// the global search for SSD-shaped graphs uses the PBQP approximation, as in
// the paper.
//
//	go run ./examples/objectdetect
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/pkg/neocpu"
)

const numClasses = 20

func buildCompactSSD() *graph.Graph {
	b := graph.NewBuilder("compact-ssd", 77)
	x := b.Input(3, 128, 128)
	// Backbone.
	x = b.ConvBNReLU(x, 32, 3, 2, 1) // 64
	x = b.ConvBNReLU(x, 64, 3, 1, 1)
	s0 := b.ConvBNReLU(x, 64, 3, 2, 1)   // 32x32
	s1 := b.ConvBNReLU(s0, 128, 3, 2, 1) // 16x16
	s2 := b.ConvBNReLU(s1, 128, 3, 2, 1) // 8x8

	attrs := graph.SSDHeadAttrs{
		NumClasses: numClasses,
		Sizes: [][]float32{
			{0.1, 0.16}, {0.25, 0.35}, {0.45, 0.55},
		},
		Ratios: [][]float32{
			{1, 2, 0.5}, {1, 2, 0.5}, {1, 2, 0.5},
		},
		Detection: ops.DefaultMultiBoxDetectionAttrs(),
	}
	attrs.Detection.ScoreThresh = 0.08

	var pairs []*graph.Node
	for i, s := range []*graph.Node{s0, s1, s2} {
		per := len(attrs.Sizes[i]) + len(attrs.Ratios[i]) - 1
		cls := b.Conv(s, per*(numClasses+1), 3, 1, 1)
		loc := b.Conv(s, per*4, 3, 1, 1)
		pairs = append(pairs, cls, loc)
	}
	return b.Finish(b.SSDHead(attrs, pairs...))
}

func main() {
	engine, err := neocpu.CompileGraph(buildCompactSSD(),
		neocpu.WithTarget("intel-skylake"),
		neocpu.WithOptLevel(neocpu.LevelGlobalSearch),
		neocpu.WithThreads(runtime.GOMAXPROCS(0)),
		neocpu.WithSearch(neocpu.SearchOptions{MaxCands: 8, ForcePBQP: true}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()
	if s, ok := engine.SearchStats(); ok {
		fmt.Printf("compiled compact-ssd: global search used %s over %d convs\n", s.Algorithm, s.Vars)
	}

	img := tensor.New(tensor.NCHW(), 1, 3, 128, 128)
	img.FillRandom(9, 1)
	sess, err := engine.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	outs, err := sess.Run(context.Background(), img)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inference in %v on %d host threads\n",
		time.Since(start).Round(time.Millisecond), runtime.GOMAXPROCS(0))

	dets := outs[0]
	n := dets.Shape[1]
	fmt.Printf("%d detections after NMS; top 5:\n", n)
	for i := 0; i < n && i < 5; i++ {
		row := dets.Data[i*6 : (i+1)*6]
		fmt.Printf("  class=%2.0f score=%.3f box=(%.2f, %.2f)-(%.2f, %.2f)\n",
			row[0], row[1], row[2], row[3], row[4], row[5])
	}

	// Detection over a short "clip": one Run per frame on the same session,
	// which reuses its arena. Each frame's detections are read before the
	// next Run overwrites them.
	const frames = 4
	fmt.Printf("\nclip of %d frames:\n", frames)
	start = time.Now()
	for i := 0; i < frames; i++ {
		img.FillRandom(uint64(100+i), 1)
		outs, err := sess.Run(context.Background(), img)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  frame %d: %d detections\n", i, outs[0].Shape[1])
	}
	fmt.Printf("%d frames in %v\n", frames, time.Since(start).Round(time.Millisecond))
}
