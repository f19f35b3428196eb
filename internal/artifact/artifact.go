// Package artifact defines the on-disk compiled bundle format — the
// serializable "compiled artifact" the compile-once/deploy-many flow ships to
// serving nodes. One bundle file packages everything a process needs to
// execute a model without ever repeating schedule search or weight packing:
// the per-convolution optimization schemes (the plan), every runtime
// parameter in its packed executable form (blocked fp32 weights, folded
// biases, surviving batch-norm statistics), the graph/IO metadata needed to
// validate a rebuild, and the signature of the CPU target the schedules were
// chosen for.
//
// This package is the dumb format layer: it encodes and decodes bundles and
// enforces their structural invariants, but knows nothing about graphs or
// modules. internal/core implements the semantic halves (Module.SaveBundle,
// core.LoadBundle) on top of it.
//
// # Wire layout (version 1)
//
//	offset  size  field
//	0       4     magic "NEOB"
//	4       4     format version, uint32 little-endian
//	8       4     header length H, uint32 little-endian
//	12      H     header, JSON (Header)
//	12+H    ...   payload: each Params entry's blob, in order
//
// Float32 data is stored as little-endian IEEE-754 bits. The header records
// the payload's total length and CRC-32 (IEEE), so truncation and corruption
// are detected before any tensor is handed to the execution engine.
//
// Every malformed-input failure — bad magic, version skew, truncated files,
// inconsistent lengths, oversized claims — is reported as an error wrapping
// ErrInvalidArtifact and never as a panic; decoding allocates proportionally
// to the bytes actually present, not to attacker-claimed sizes.
package artifact

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/tensor"
)

// Magic identifies a NeoCPU bundle file.
const Magic = "NEOB"

// Version is the current format version. Readers reject other versions: the
// bundle carries derived compiler state (packed layouts, planned arena
// sizes), so cross-version compatibility is an explicit non-goal — recompile
// instead.
const Version = 1

// ErrInvalidArtifact is the typed cause wrapped by every bundle-decoding
// failure: corrupted or truncated files, version skew, inconsistent shapes
// or lengths. Callers branch with errors.Is.
var ErrInvalidArtifact = errors.New("artifact: invalid bundle")

// ErrTruncated marks the subset of invalid-bundle failures where the stream
// ended before the header's claims were satisfied. Truncation is the
// signature of a torn read — a bundle observed mid-write or over flaky I/O —
// so unlike the rest of ErrInvalidArtifact it is worth retrying. Errors on
// truncated paths wrap both sentinels.
var ErrTruncated = errors.New("artifact: truncated bundle")

// ErrInt8Bundle marks a quantized bundle saved by an earlier build that had
// an int8 path (its header sets "int8": true). This build executes fp32
// only, and such a bundle's NCHW-planned convolutions were stored in fp32,
// so loading it as fp32 could look like it works; it is rejected instead. It wraps ErrInvalidArtifact, so it is never retried: recompile
// the model without int8.
var ErrInt8Bundle = fmt.Errorf("%w: int8 bundle (this build runs fp32 only; recompile)", ErrInvalidArtifact)

// Retryable classifies a model-load failure for retry loops: transient
// failures (torn reads, interrupted I/O) return true; deterministic ones —
// a missing bundle, a permission error, a bundle that is simply corrupt —
// return false, since retrying them only delays the inevitable failure.
// Errors may also self-classify by implementing Retryable() bool.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var rt interface{ Retryable() bool }
	if errors.As(err, &rt) {
		return rt.Retryable()
	}
	return errors.Is(err, ErrTruncated)
}

// Decoding limits. They bound what a hostile header can make the reader
// allocate or loop over; real bundles sit far below all of them.
const (
	maxHeaderLen  = 8 << 20 // 8 MiB of JSON metadata
	maxShapeRank  = 8       // packed weights are rank 6, winograd rank 5
	maxParamElems = 1 << 28 // 256M elements (1 GiB fp32) per parameter
	maxParams     = 1 << 16 // distinct parameter entries
	maxPlanConvs  = 1 << 16 // plan entries
)

// Param roles. Each role determines how internal/core applies the blob to
// the rebuilt graph and how its byte length derives from Shape.
const (
	// RolePacked is a convolution's pre-transformed fp32 weight: the blocked
	// OIHW[x]i[y]o packing for the direct algorithm, or the transformed
	// winograd kernel U = G g Gᵀ in its blocked form.
	RolePacked = "packed"
	// RoleWeight is an unpacked fp32 node weight: convolutions scheduled in
	// plain NCHW/NHWC, and dense layers.
	RoleWeight = "weight"
	// RoleBias is a per-output-channel fp32 bias vector (possibly produced by
	// compile-time batch-norm folding).
	RoleBias = "bias"
	// RoleBN carries a surviving (unfolded) batch normalization's inference
	// statistics: gamma, beta, mean, var concatenated, shape (4, C), with the
	// epsilon in the entry's Eps field.
	RoleBN = "bn"
)

// TargetSig identifies the CPU target a bundle's schedules were chosen for.
// Name selects the machine model; VectorLanes and NumVecRegs are the
// schedule-validity parameters (a plan blocked for 16 lanes is wrong on 8),
// so loaders must reject bundles whose signature disagrees with the resolved
// target. Cores is provenance only — the thread count is a runtime choice.
type TargetSig struct {
	Name        string `json:"name"`
	VectorLanes int    `json:"vector_lanes"`
	NumVecRegs  int    `json:"num_vec_regs"`
	Cores       int    `json:"cores,omitempty"`
}

// SchedEntry is one convolution's serialized optimization scheme, mirroring
// the plan-file entries of internal/core (the bundle embeds the plan so a
// loaded model never re-runs the global search). Kept field-identical with
// core.PlanEntry — the two convert by direct struct conversion.
type SchedEntry struct {
	Conv      string `json:"conv"`
	Layout    string `json:"layout"` // "nchw", "nhwc" or "nchwc"
	ICBlock   int    `json:"ic_bn,omitempty"`
	OCBlock   int    `json:"oc_bn,omitempty"`
	RegN      int    `json:"reg_n,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
}

// LayoutRef is a serializable tensor layout.
type LayoutRef struct {
	Kind   string `json:"kind"`
	BlockC int    `json:"block_c,omitempty"`
	BlockK int    `json:"block_k,omitempty"`
}

// layoutKinds maps the wire names onto tensor layout families.
var layoutKinds = map[string]tensor.LayoutKind{
	"nchw":   tensor.LayoutNCHW,
	"nhwc":   tensor.LayoutNHWC,
	"nchwc":  tensor.LayoutNCHWc,
	"oihw":   tensor.LayoutOIHW,
	"oihwio": tensor.LayoutOIHWio,
	"flat":   tensor.LayoutFlat,
	"any":    tensor.LayoutAny,
}

// RefOf converts a tensor layout to its wire form.
func RefOf(l tensor.Layout) LayoutRef {
	for name, kind := range layoutKinds {
		if kind == l.Kind {
			return LayoutRef{Kind: name, BlockC: l.BlockC, BlockK: l.BlockK}
		}
	}
	return LayoutRef{Kind: fmt.Sprintf("layout(%d)", int(l.Kind))}
}

// Layout converts the wire form back to a tensor layout.
func (r LayoutRef) Layout() (tensor.Layout, error) {
	kind, ok := layoutKinds[r.Kind]
	if !ok {
		return tensor.Layout{}, fmt.Errorf("%w: unknown layout kind %q", ErrInvalidArtifact, r.Kind)
	}
	return tensor.Layout{Kind: kind, BlockC: r.BlockC, BlockK: r.BlockK}, nil
}

// ParamEntry describes one runtime parameter blob in the payload. The blob's
// byte length is derived from Role and Shape — it is never trusted from a
// separate length field.
type ParamEntry struct {
	// Node is the graph node the parameter belongs to (builder-assigned layer
	// name, stable across rebuilds).
	Node string `json:"node"`
	// Role is one of the Role* constants.
	Role string `json:"role"`
	// Layout is the blob's tensor layout (meaningful for tensor roles).
	Layout LayoutRef `json:"layout"`
	// Shape is the blob's tensor shape ((4, C) for RoleBN, (N) for RoleBias).
	Shape []int `json:"shape"`
	// Eps is the batch-norm epsilon for RoleBN entries.
	Eps float32 `json:"eps,omitempty"`
}

// payloadBytes returns the entry's exact blob size, or an error for
// out-of-bounds claims.
func (e *ParamEntry) payloadBytes() (int, error) {
	if len(e.Shape) == 0 || len(e.Shape) > maxShapeRank {
		return 0, fmt.Errorf("%w: param %q/%s has shape rank %d", ErrInvalidArtifact, e.Node, e.Role, len(e.Shape))
	}
	elems := 1
	for _, d := range e.Shape {
		if d <= 0 || d > maxParamElems {
			return 0, fmt.Errorf("%w: param %q/%s has dimension %d in shape %v", ErrInvalidArtifact, e.Node, e.Role, d, e.Shape)
		}
		elems *= d
		if elems > maxParamElems {
			return 0, fmt.Errorf("%w: param %q/%s volume exceeds %d elements", ErrInvalidArtifact, e.Node, e.Role, maxParamElems)
		}
	}
	switch e.Role {
	case RolePacked, RoleWeight, RoleBias, RoleBN:
		return 4 * elems, nil
	}
	return 0, fmt.Errorf("%w: param %q has unknown role %q", ErrInvalidArtifact, e.Node, e.Role)
}

// Header is the bundle's JSON metadata block.
type Header struct {
	// Model is the graph/builder name the bundle was compiled from; Seed is
	// the synthetic-parameter seed (provenance — loading never regenerates
	// parameters from it).
	Model string `json:"model"`
	Seed  uint64 `json:"seed,omitempty"`
	// Target is the compiled-for CPU signature.
	Target TargetSig `json:"target"`
	// Level is the optimization level's canonical name.
	Level string `json:"level"`
	// Int8 is read only to reject: earlier builds set it on quantized
	// bundles, and ReadHeader fails those with ErrInt8Bundle. No writer
	// sets it.
	Int8 bool `json:"int8,omitempty"`
	// NoFusion/NoBNFold record pipeline ablations, so the loader rebuilds
	// the exact node set the parameters were saved against.
	NoFusion bool `json:"no_fusion,omitempty"`
	NoBNFold bool `json:"no_bn_fold,omitempty"`
	// Plan is the per-convolution scheme table.
	Plan []SchedEntry `json:"plan"`
	// InputShape/OutputShapes are the model's IO geometry, for validation and
	// for serving layers that size request limits before loading weights.
	InputShape   []int   `json:"input_shape"`
	OutputShapes [][]int `json:"output_shapes"`
	// ArenaBytes is the planned per-session arena footprint recorded at save
	// time; loaders reject a bundle whose rebuilt execution plan needs more,
	// compiler drift that silently grows execution memory.
	ArenaBytes int `json:"arena_bytes,omitempty"`
	// Params describes the payload blobs, in payload order.
	Params []ParamEntry `json:"params"`
	// PayloadLen/PayloadCRC guard the payload's integrity.
	PayloadLen int64  `json:"payload_len"`
	PayloadCRC uint32 `json:"payload_crc"`
}

// Param is one decoded parameter: its entry plus its fp32 data.
type Param struct {
	Entry ParamEntry
	F32   []float32
}

// Bundle is a fully decoded artifact.
type Bundle struct {
	Header Header
	Params []Param
}

// encodeBlob writes one parameter's payload bytes.
func encodeBlob(w io.Writer, p *Param) error {
	var scratch [4]byte
	buf := make([]byte, 0, 4096)
	for _, x := range p.F32 {
		binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(x))
		buf = append(buf, scratch[:]...)
		if len(buf) >= 4096-4 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		_, err := w.Write(buf)
		return err
	}
	return nil
}

// validateParam checks a parameter's data lengths against its entry.
func validateParam(p *Param) error {
	want, err := p.Entry.payloadBytes()
	if err != nil {
		return err
	}
	if got := 4 * len(p.F32); got != want {
		return fmt.Errorf("%w: param %q/%s has %d values for shape %v", ErrInvalidArtifact, p.Entry.Node, p.Entry.Role, len(p.F32), p.Entry.Shape)
	}
	return nil
}

// Write encodes a bundle. The header's Params, PayloadLen and PayloadCRC
// fields are computed from params; any caller-provided values are ignored.
func Write(w io.Writer, h Header, params []Param) error {
	h.Params = make([]ParamEntry, len(params))
	var total int64
	crc := crc32.NewIEEE()
	for i := range params {
		p := &params[i]
		if err := validateParam(p); err != nil {
			return err
		}
		n, _ := p.Entry.payloadBytes()
		h.Params[i] = p.Entry
		total += int64(n)
		// First pass: CRC only. The payload is already in memory, so the
		// second encoding pass below costs a copy, not a search or a pack.
		if err := encodeBlob(crc, p); err != nil {
			return err
		}
	}
	h.PayloadLen = total
	h.PayloadCRC = crc.Sum32()

	hj, err := json.Marshal(&h)
	if err != nil {
		return fmt.Errorf("artifact: encode header: %w", err)
	}
	if len(hj) > maxHeaderLen {
		return fmt.Errorf("artifact: header is %d bytes (limit %d)", len(hj), maxHeaderLen)
	}
	var fixed [12]byte
	copy(fixed[:4], Magic)
	binary.LittleEndian.PutUint32(fixed[4:8], Version)
	binary.LittleEndian.PutUint32(fixed[8:12], uint32(len(hj)))
	if _, err := w.Write(fixed[:]); err != nil {
		return err
	}
	if _, err := w.Write(hj); err != nil {
		return err
	}
	for i := range params {
		if err := encodeBlob(w, &params[i]); err != nil {
			return err
		}
	}
	return nil
}

// readExact reads exactly n bytes, growing the buffer incrementally so a
// huge claimed size with a short actual stream fails after reading what is
// there rather than allocating the claim up front.
func readExact(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	if n <= chunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: %w (%v)", ErrInvalidArtifact, ErrTruncated, err)
		}
		return buf, nil
	}
	buf := make([]byte, 0, chunk)
	for len(buf) < n {
		m := min(chunk, n-len(buf))
		start := len(buf)
		buf = append(buf, make([]byte, m)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, fmt.Errorf("%w: %w (%v)", ErrInvalidArtifact, ErrTruncated, err)
		}
	}
	return buf, nil
}

// decodeF32 converts little-endian float32 bytes.
func decodeF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// ReadHeader decodes and validates the fixed prelude and header without
// touching the payload. Serving layers use it to index repositories cheaply.
func ReadHeader(r io.Reader) (*Header, error) {
	var fixed [12]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("%w: %w: short prelude (%v)", ErrInvalidArtifact, ErrTruncated, err)
	}
	if string(fixed[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrInvalidArtifact, fixed[:4])
	}
	if v := binary.LittleEndian.Uint32(fixed[4:8]); v != Version {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrInvalidArtifact, v, Version)
	}
	hlen := binary.LittleEndian.Uint32(fixed[8:12])
	if hlen == 0 || hlen > maxHeaderLen {
		return nil, fmt.Errorf("%w: header length %d", ErrInvalidArtifact, hlen)
	}
	hj, err := readExact(r, int(hlen))
	if err != nil {
		return nil, err
	}
	var h Header
	if err := json.Unmarshal(hj, &h); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrInvalidArtifact, err)
	}
	// Checked before validate, which would report an int8 bundle's
	// quantized params as an unknown role.
	if h.Int8 {
		return nil, fmt.Errorf("%w: model %q", ErrInt8Bundle, h.Model)
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	return &h, nil
}

// validate checks the header's structural invariants (not its payload).
func (h *Header) validate() error {
	if h.Model == "" {
		return fmt.Errorf("%w: missing model name", ErrInvalidArtifact)
	}
	if h.Target.Name == "" {
		return fmt.Errorf("%w: missing target signature", ErrInvalidArtifact)
	}
	if len(h.Plan) > maxPlanConvs {
		return fmt.Errorf("%w: %d plan entries (limit %d)", ErrInvalidArtifact, len(h.Plan), maxPlanConvs)
	}
	if len(h.Params) > maxParams {
		return fmt.Errorf("%w: %d params (limit %d)", ErrInvalidArtifact, len(h.Params), maxParams)
	}
	if len(h.InputShape) != 4 {
		return fmt.Errorf("%w: input shape %v is not rank-4 NCHW", ErrInvalidArtifact, h.InputShape)
	}
	if len(h.OutputShapes) == 0 {
		return fmt.Errorf("%w: no output shapes", ErrInvalidArtifact)
	}
	if h.PayloadLen < 0 {
		return fmt.Errorf("%w: negative payload length", ErrInvalidArtifact)
	}
	var total int64
	for i := range h.Params {
		n, err := h.Params[i].payloadBytes()
		if err != nil {
			return err
		}
		total += int64(n)
	}
	if total != h.PayloadLen {
		return fmt.Errorf("%w: params sum to %d payload bytes, header claims %d", ErrInvalidArtifact, total, h.PayloadLen)
	}
	return nil
}

// Read decodes a complete bundle, verifying the payload CRC.
func Read(r io.Reader) (*Bundle, error) {
	h, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	b := &Bundle{Header: *h, Params: make([]Param, len(h.Params))}
	crc := crc32.NewIEEE()
	for i := range h.Params {
		e := h.Params[i]
		n, _ := e.payloadBytes() // validated by ReadHeader
		blob, err := readExact(r, n)
		if err != nil {
			return nil, fmt.Errorf("param %q/%s: %w", e.Node, e.Role, err)
		}
		crc.Write(blob)
		b.Params[i] = Param{Entry: e, F32: decodeF32(blob)}
	}
	if got := crc.Sum32(); got != h.PayloadCRC {
		return nil, fmt.Errorf("%w: payload CRC %08x, header claims %08x", ErrInvalidArtifact, got, h.PayloadCRC)
	}
	return b, nil
}
