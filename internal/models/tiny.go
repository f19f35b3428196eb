package models

import "repro/internal/graph"

// Tiny variants keep the structural patterns of the full networks at sizes
// that real-execution tests can afford. They are not registered in the
// evaluation registry.

// TinyCNN is a 2-conv classifier on 3x32x32 input.
func TinyCNN(seed uint64) *graph.Graph {
	b := graph.NewBuilder("tiny-cnn", seed)
	x := b.Input(3, 32, 32)
	x = b.ConvBNReLU(x, 16, 3, 1, 1)
	x = b.MaxPool(x, 2, 2, 0)
	x = b.ConvBNReLU(x, 32, 3, 1, 1)
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	x = b.Dense(x, 10)
	return b.Finish(b.Softmax(x))
}

// TinyResNet is a 2-block residual network on 3x32x32 input.
func TinyResNet(seed uint64) *graph.Graph {
	b := graph.NewBuilder("tiny-resnet", seed)
	x := b.Input(3, 32, 32)
	x = b.ConvBNReLU(x, 16, 3, 1, 1)
	for i := 0; i < 2; i++ {
		x = basicBlock(b, x, 16, 1, i == 0)
	}
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	x = b.Dense(x, 10)
	return b.Finish(b.Softmax(x))
}

// TinyDenseNet is a 3-layer dense block on 3x32x32 input.
func TinyDenseNet(seed uint64) *graph.Graph {
	b := graph.NewBuilder("tiny-densenet", seed)
	x := b.Input(3, 32, 32)
	x = b.ConvBNReLU(x, 16, 3, 1, 1)
	for i := 0; i < 3; i++ {
		y := denseLayer(b, x, 8)
		x = b.Concat(x, y)
	}
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	x = b.Dense(x, 10)
	return b.Finish(b.Softmax(x))
}

// TinyInception is a 2-module branch-and-concat network on 3x32x32 input.
// Each module's four towers (1x1, 1x1→3x3, 1x1→5x5, pool→1x1) are mutually
// independent, making it the canonical branchy workload for the execution
// plan's multi-node levels.
func TinyInception(seed uint64) *graph.Graph {
	b := graph.NewBuilder("tiny-inception", seed)
	x := b.Input(3, 32, 32)
	x = b.ConvBNReLU(x, 16, 3, 1, 1)
	for i := 0; i < 2; i++ {
		b1 := b.ConvBNReLU(x, 16, 1, 1, 0)
		b3 := b.ConvBNReLU(x, 8, 1, 1, 0)
		b3 = b.ConvBNReLU(b3, 16, 3, 1, 1)
		b5 := b.ConvBNReLU(x, 8, 1, 1, 0)
		b5 = b.ConvBNReLU(b5, 16, 5, 1, 2)
		bp := b.MaxPool(x, 3, 1, 1)
		bp = b.ConvBNReLU(bp, 8, 1, 1, 0)
		x = b.Concat(b1, b3, b5, bp)
	}
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	x = b.Dense(x, 10)
	return b.Finish(b.Softmax(x))
}

// TinySSD is a miniature single-shot detector on 3x64x64 input: a strided
// backbone with two feature-map scales, each feeding an independent pair of
// class/location head convolutions into the multibox head.
func TinySSD(seed uint64) *graph.Graph {
	b := graph.NewBuilder("tiny-ssd", seed)
	x := b.Input(3, 64, 64)
	x = b.ConvBNReLU(x, 16, 3, 2, 1)    // 32x32
	s0 := b.ConvBNReLU(x, 32, 3, 2, 1)  // 16x16
	s1 := b.ConvBNReLU(s0, 32, 3, 2, 1) // 8x8
	attrs := graph.SSDHeadAttrs{
		NumClasses: 4,
		Sizes:      [][]float32{{0.2, 0.3}, {0.4, 0.5}},
		Ratios:     [][]float32{{1, 2, 0.5}, {1, 2, 0.5}},
	}
	attrs.Detection.ScoreThresh = 0.1
	attrs.Detection.NMSThresh = 0.45
	attrs.Detection.NMSTopK = 100
	attrs.Detection.Variances = [4]float32{0.1, 0.1, 0.2, 0.2}
	per := 4 // 2 sizes + 3 ratios - 1
	cls0 := b.Conv(s0, per*(attrs.NumClasses+1), 3, 1, 1)
	loc0 := b.Conv(s0, per*4, 3, 1, 1)
	cls1 := b.Conv(s1, per*(attrs.NumClasses+1), 3, 1, 1)
	loc1 := b.Conv(s1, per*4, 3, 1, 1)
	return b.Finish(b.SSDHead(attrs, cls0, loc0, cls1, loc1))
}

// TinyMobileNet is a 3-block depthwise-separable network on 3x32x32 input —
// the MobileNet structural pattern (strided 3x3 stem, depthwise 3x3 + BN +
// ReLU followed by pointwise 1x1 + BN + ReLU, one strided depthwise block) at
// a size real-execution tests can afford.
func TinyMobileNet(seed uint64) *graph.Graph {
	b := graph.NewBuilder("tiny-mobilenet", seed)
	x := b.Input(3, 32, 32)
	x = b.ConvBNReLU(x, 16, 3, 1, 1)
	x = b.DepthwiseSeparable(x, 32, 1)
	x = b.DepthwiseSeparable(x, 32, 2)
	x = b.DepthwiseSeparable(x, 64, 1)
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	x = b.Dense(x, 10)
	return b.Finish(b.Softmax(x))
}

// TinyVGG is a 4-conv VGG-style net with a small classifier head.
func TinyVGG(seed uint64) *graph.Graph {
	b := graph.NewBuilder("tiny-vgg", seed)
	x := b.Input(3, 32, 32)
	x = b.ReLU(b.Conv(x, 16, 3, 1, 1))
	x = b.ReLU(b.Conv(x, 16, 3, 1, 1))
	x = b.MaxPool(x, 2, 2, 0)
	x = b.ReLU(b.Conv(x, 32, 3, 1, 1))
	x = b.ReLU(b.Conv(x, 32, 3, 1, 1))
	x = b.MaxPool(x, 2, 2, 0)
	x = b.Flatten(x)
	x = b.Dropout(b.ReLU(b.Dense(x, 64)))
	x = b.Dense(x, 10)
	return b.Finish(b.Softmax(x))
}
