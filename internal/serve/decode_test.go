package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// decodeBody builds the JSON body a client sends for a 1×3×side×side input.
func decodeBody(t testing.TB, side int) ([]byte, int) {
	t.Helper()
	volume := 3 * side * side
	data := make([]float32, volume)
	for i := range data {
		data[i] = float32(i%251)/127 - 0.987654321
	}
	body, err := json.Marshal(InferRequest{ID: "req-1", Inputs: []InferTensor{{
		Name: "input", Shape: []int{1, 3, side, side}, Datatype: "FP32", Data: data,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return body, volume
}

// TestInferDecodeAllocs pins the one-pass decode's allocations to a small
// constant that does not grow with the element count: the request's slices
// and strings, never one per float. encoding/json spends 38 allocations on
// the 32×32 body.
func TestInferDecodeAllocs(t *testing.T) {
	const maxAllocs = 8
	var base float64
	for _, side := range []int{32, 64} {
		body, volume := decodeBody(t, side)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := decodeInfer(body, volume); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Fatalf("1×3×%d×%d: %.0f allocations per decode, want ≤ %d", side, side, allocs, maxAllocs)
		}
		if side == 32 {
			base = allocs
		} else if allocs != base {
			t.Fatalf("1×3×%d×%d: %.0f allocations per decode, 1×3×32×32 took %.0f; want the same", side, side, allocs, base)
		}
	}
}

// BenchmarkInferDecode sizes the request codec: encoding/json's streaming
// decode of the whole body against the one-pass decode into the input
// volume, on the serving benchmark's 1×3×32×32 body.
func BenchmarkInferDecode(b *testing.B) {
	body, volume := decodeBody(b, 32)
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req InferRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-pass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeInfer(body, volume); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReadBodyWholeBody: readBody returns every byte whatever the declared
// length, and a body that fills its Content-Length-sized buffer exactly
// needs no regrowth to see the end.
func TestReadBodyWholeBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 1000)
	for _, cl := range []int64{-1, 0, 10, int64(len(body)), 1 << 20} {
		t.Run(fmt.Sprint(cl), func(t *testing.T) {
			got, err := readBody(bytes.NewReader(body), cl, 1<<20)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("read %d bytes, err %v; want all %d", len(got), err, len(body))
			}
		})
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := readBody(bytes.NewReader(body), int64(len(body)), 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("%.0f allocations reading a body of its declared length, want ≤ 2 (reader + buffer)", allocs)
	}
}
