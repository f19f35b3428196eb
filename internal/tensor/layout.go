package tensor

import "fmt"

// Layout identifies how tensor dimensions are interpreted. The blocked
// layouts carry a block size; two NCHWc layouts with different block sizes
// are different layouts for the purpose of transform elimination (Section
// 3.2 of the paper).
type Layout struct {
	// Kind is the layout family.
	Kind LayoutKind
	// BlockC is the channel split factor x in NCHW[x]c, or the input-channel
	// split x in OIHW[x]i[y]o. Zero for unblocked layouts.
	BlockC int
	// BlockK is the output-channel split factor y in OIHW[x]i[y]o. Zero
	// otherwise.
	BlockK int
}

// LayoutKind is the family of a data layout.
type LayoutKind int

const (
	// LayoutAny is used by layout-oblivious operations that accept any input
	// layout (Section 3.2 category 1).
	LayoutAny LayoutKind = iota
	// LayoutNCHW is the default activation layout: batch, channel, height,
	// width.
	LayoutNCHW
	// LayoutNCHWc is the blocked activation layout NCHW[x]c with the channel
	// dimension split into C/x super-channels of x sub-channels each.
	LayoutNCHWc
	// LayoutOIHW is the default weight layout (the paper writes KCRS):
	// out-channel, in-channel, kernel-height, kernel-width.
	LayoutOIHW
	// LayoutOIHWio is the blocked weight layout OIHW[x]i[y]o (the paper's
	// KCRS[x]c[y]k).
	LayoutOIHWio
	// LayoutFlat is a rank-2 (batch, features) layout for dense layers,
	// produced by Flatten — the canonical layout-dependent boundary.
	LayoutFlat
)

// Convenience constructors.

// NCHW is the default activation layout.
func NCHW() Layout { return Layout{Kind: LayoutNCHW} }

// NCHWc returns the blocked activation layout NCHW[x]c.
func NCHWc(x int) Layout { return Layout{Kind: LayoutNCHWc, BlockC: x} }

// OIHW is the default weight layout (KCRS in the paper).
func OIHW() Layout { return Layout{Kind: LayoutOIHW} }

// OIHWio returns the blocked weight layout OIHW[x]i[y]o (KCRS[x]c[y]k).
func OIHWio(x, y int) Layout { return Layout{Kind: LayoutOIHWio, BlockC: x, BlockK: y} }

// Flat is the rank-2 layout for dense layers.
func Flat() Layout { return Layout{Kind: LayoutFlat} }

// Any matches any layout.
func Any() Layout { return Layout{Kind: LayoutAny} }

func (l Layout) String() string {
	switch l.Kind {
	case LayoutAny:
		return "any"
	case LayoutNCHW:
		return "NCHW"
	case LayoutNCHWc:
		return fmt.Sprintf("NCHW%dc", l.BlockC)
	case LayoutOIHW:
		return "OIHW"
	case LayoutOIHWio:
		return fmt.Sprintf("OIHW%di%do", l.BlockC, l.BlockK)
	case LayoutFlat:
		return "flat"
	}
	return fmt.Sprintf("layout(%d)", int(l.Kind))
}

// Equal reports whether two layouts are identical, including block factors.
func (l Layout) Equal(o Layout) bool { return l == o }

// IsBlocked reports whether the layout is one of the blocked families.
func (l Layout) IsBlocked() bool {
	return l.Kind == LayoutNCHWc || l.Kind == LayoutOIHWio
}

// ActivationShape describes a logical activation tensor independent of
// physical layout.
type ActivationShape struct {
	N, C, H, W int
}

// Volume returns N*C*H*W.
func (s ActivationShape) Volume() int { return s.N * s.C * s.H * s.W }

// PhysicalShape returns the concrete dimension sizes for storing this logical
// activation in the given layout.
func (s ActivationShape) PhysicalShape(l Layout) []int {
	switch l.Kind {
	case LayoutNCHW:
		return []int{s.N, s.C, s.H, s.W}
	case LayoutNCHWc:
		if l.BlockC <= 0 || s.C%l.BlockC != 0 {
			panic(fmt.Sprintf("tensor: channel %d not divisible by block %d", s.C, l.BlockC))
		}
		return []int{s.N, s.C / l.BlockC, s.H, s.W, l.BlockC}
	}
	panic(fmt.Sprintf("tensor: %v is not an activation layout", l))
}

// WeightShape describes a logical convolution weight independent of layout.
type WeightShape struct {
	O, I, KH, KW int
}

// Volume returns O*I*KH*KW.
func (s WeightShape) Volume() int { return s.O * s.I * s.KH * s.KW }

// PhysicalShape returns the concrete dimensions for this weight in layout l.
func (s WeightShape) PhysicalShape(l Layout) []int {
	switch l.Kind {
	case LayoutOIHW:
		return []int{s.O, s.I, s.KH, s.KW}
	case LayoutOIHWio:
		if l.BlockC <= 0 || s.I%l.BlockC != 0 {
			panic(fmt.Sprintf("tensor: in-channel %d not divisible by block %d", s.I, l.BlockC))
		}
		if l.BlockK <= 0 || s.O%l.BlockK != 0 {
			panic(fmt.Sprintf("tensor: out-channel %d not divisible by block %d", s.O, l.BlockK))
		}
		return []int{s.O / l.BlockK, s.I / l.BlockC, s.KH, s.KW, l.BlockC, l.BlockK}
	}
	panic(fmt.Sprintf("tensor: %v is not a weight layout", l))
}
