package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func testHeader() Header {
	return Header{
		Model:  "tiny-test",
		Seed:   7,
		Target: TargetSig{Name: "intel-skylake", VectorLanes: 16, NumVecRegs: 32, Cores: 18},
		Level:  "global-search",
		Plan: []SchedEntry{
			{Conv: "conv0", Layout: "nchwc", ICBlock: 4, OCBlock: 8, RegN: 7},
		},
		InputShape:   []int{1, 3, 8, 8},
		OutputShapes: [][]int{{1, 10}},
		ArenaBytes:   4096,
	}
}

func testParams() []Param {
	f := make([]float32, 2*1*3*3*4*8) // (oo, io, kh, kw, ic_bn, oc_bn)
	for i := range f {
		f[i] = float32(i) * 0.25
	}
	bias := []float32{1, 2, 3, -4}
	return []Param{
		{
			Entry: ParamEntry{Node: "conv0", Role: RolePacked, Layout: RefOf(tensor.OIHWio(4, 8)), Shape: []int{2, 1, 3, 3, 4, 8}},
			F32:   f,
		},
		{
			Entry: ParamEntry{Node: "conv0", Role: RoleBias, Layout: RefOf(tensor.Flat()), Shape: []int{4}},
			F32:   bias,
		},
		{
			Entry: ParamEntry{Node: "conv1", Role: RoleWeight, Layout: RefOf(tensor.OIHW()), Shape: []int{4, 2, 1, 1}},
			F32:   []float32{0.5, 0.25, 0.125, 1, -1, -0.5, 2, 0},
		},
		{
			Entry: ParamEntry{Node: "bn2", Role: RoleBN, Layout: RefOf(tensor.Flat()), Shape: []int{4, 2}, Eps: 1e-5},
			F32:   []float32{1, 1, 0, 0, 0.5, 0.5, 1, 1},
		},
	}
}

func encode(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, testHeader(), testParams()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	raw := encode(t)
	b, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b.Header.Model != "tiny-test" || b.Header.Target.VectorLanes != 16 {
		t.Fatalf("header mangled: %+v", b.Header)
	}
	if len(b.Params) != 4 {
		t.Fatalf("got %d params", len(b.Params))
	}
	want := testParams()
	for i, p := range b.Params {
		if p.Entry.Node != want[i].Entry.Node || p.Entry.Role != want[i].Entry.Role {
			t.Fatalf("param %d entry = %+v", i, p.Entry)
		}
		for j, v := range want[i].F32 {
			if p.F32[j] != v {
				t.Fatalf("param %d f32[%d] = %v, want %v", i, j, p.F32[j], v)
			}
		}
	}
	l, err := b.Params[0].Entry.Layout.Layout()
	if err != nil || !l.Equal(tensor.OIHWio(4, 8)) {
		t.Fatalf("layout round trip: %v %v", l, err)
	}
}

func TestTruncationAndCorruption(t *testing.T) {
	raw := encode(t)
	// Every strict prefix must fail with ErrInvalidArtifact, never panic.
	for n := 0; n < len(raw); n += 7 {
		if _, err := Read(bytes.NewReader(raw[:n])); !errors.Is(err, ErrInvalidArtifact) {
			t.Fatalf("prefix %d: err = %v, want ErrInvalidArtifact", n, err)
		}
	}
	// A flipped payload byte must fail the CRC.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-3] ^= 0x40
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrInvalidArtifact) {
		t.Fatalf("corrupt payload: err = %v", err)
	}
}

func TestVersionAndMagicSkew(t *testing.T) {
	raw := encode(t)
	wrongMagic := append([]byte(nil), raw...)
	copy(wrongMagic, "NOPE")
	if _, err := Read(bytes.NewReader(wrongMagic)); !errors.Is(err, ErrInvalidArtifact) {
		t.Fatalf("bad magic: err = %v", err)
	}
	wrongVer := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(wrongVer[4:8], Version+1)
	if _, err := Read(bytes.NewReader(wrongVer)); !errors.Is(err, ErrInvalidArtifact) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew: err = %v", err)
	}
}

func TestHostileHeaderClaims(t *testing.T) {
	// A header claiming a huge parameter must be rejected up front — the
	// reader must not allocate the claim.
	h := testHeader()
	h.Params = []ParamEntry{{Node: "x", Role: RoleWeight, Shape: []int{1 << 20, 1 << 20}}}
	var buf bytes.Buffer
	if err := Write(&buf, h, []Param{{Entry: h.Params[0]}}); !errors.Is(err, ErrInvalidArtifact) {
		t.Fatalf("oversized write: err = %v", err)
	}

	cases := []ParamEntry{
		{Node: "x", Role: "exotic", Shape: []int{1}},
		{Node: "x", Role: RoleWeight, Shape: nil},
		{Node: "x", Role: RoleWeight, Shape: []int{0}},
		{Node: "x", Role: RoleWeight, Shape: []int{-3}},
		{Node: "x", Role: RoleWeight, Shape: []int{1, 1, 1, 1, 1, 1, 1, 1, 1}},
		// The quantized role of earlier int8 builds is now unknown.
		{Node: "x", Role: "qpacked", Shape: []int{2}},
	}
	for _, e := range cases {
		if _, err := e.payloadBytes(); !errors.Is(err, ErrInvalidArtifact) {
			t.Fatalf("entry %+v: err = %v, want ErrInvalidArtifact", e, err)
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	mutate := []func(*Header){
		func(h *Header) { h.Model = "" },
		func(h *Header) { h.Target.Name = "" },
		func(h *Header) { h.InputShape = []int{1, 3} },
		func(h *Header) { h.OutputShapes = nil },
		func(h *Header) { h.PayloadLen += 4 },
	}
	for i, m := range mutate {
		var buf bytes.Buffer
		if err := Write(&buf, testHeader(), testParams()); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		// Re-decode the header JSON, mutate, re-encode by hand.
		b, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		h := b.Header
		m(&h)
		if err := h.validate(); !errors.Is(err, ErrInvalidArtifact) {
			t.Fatalf("mutation %d: err = %v, want ErrInvalidArtifact", i, err)
		}
	}
}

// rawBundle frames a hand-written header JSON with the fixed prelude and no
// payload, for headers Write cannot produce.
func rawBundle(header string) []byte {
	raw := make([]byte, 12, 12+len(header))
	copy(raw, Magic)
	binary.LittleEndian.PutUint32(raw[4:8], Version)
	binary.LittleEndian.PutUint32(raw[8:12], uint32(len(header)))
	return append(raw, header...)
}

func TestInt8HeaderRejected(t *testing.T) {
	// The header of a quantized bundle as earlier int8-capable builds wrote
	// it: the int8 marker and a "qpacked" entry with per-channel scales.
	const qpacked = `{"node":"conv1","role":"qpacked","layout":{"kind":"oihwio","block_c":3,"block_k":16},"shape":[1,1,3,3,3,16],"scales":16}`
	header := func(int8 string) string {
		return `{"model":"tiny-cnn","target":{"name":"intel-skylake","vector_lanes":16,"num_vec_regs":32},"level":"transform-elim",` +
			int8 + `"plan":[],"input_shape":[1,3,32,32],"output_shapes":[[1,10]],"params":[` + qpacked + `],"payload_len":496,"payload_crc":0}`
	}
	for _, read := range []func([]byte) error{
		func(b []byte) error { _, err := ReadHeader(bytes.NewReader(b)); return err },
		func(b []byte) error { _, err := Read(bytes.NewReader(b)); return err },
	} {
		err := read(rawBundle(header(`"int8":true,`)))
		if !errors.Is(err, ErrInt8Bundle) || !errors.Is(err, ErrInvalidArtifact) {
			t.Fatalf("int8 header: err = %v, want ErrInt8Bundle wrapping ErrInvalidArtifact", err)
		}
		if Retryable(err) {
			t.Fatalf("int8 header: %v classified retryable", err)
		}
		// Without the marker the quantized entry is simply an unknown role.
		err = read(rawBundle(header("")))
		if !errors.Is(err, ErrInvalidArtifact) || errors.Is(err, ErrInt8Bundle) || !strings.Contains(err.Error(), "unknown role") {
			t.Fatalf("qpacked entry without int8 marker: err = %v, want unknown-role ErrInvalidArtifact", err)
		}
	}

	// The marker alone is enough, whatever the params.
	h := testHeader()
	h.Int8 = true
	var buf bytes.Buffer
	if err := Write(&buf, h, testParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrInt8Bundle) {
		t.Fatalf("fp32 params under int8 marker: err = %v, want ErrInt8Bundle", err)
	}
}
