package serve

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
)

// FuzzInferDecode differentially fuzzes the infer-request decoder against
// encoding/json: on the same bytes, decodeInfer plus requestTensor must
// reach the same accept/reject decision, with the same error text, the same
// decoded request (floats equal by bits) and the same tensor as
// json.Unmarshal plus requestTensor. It decodes at the module's input volume
// and at a small one, so the one-pass path and its overflow fallback both
// see short bodies. CI runs the seed corpus; run
// `go test -fuzz FuzzInferDecode ./internal/serve` locally to explore.
func FuzzInferDecode(f *testing.F) {
	mod, err := core.Compile(models.TinyCNN(1), machine.IntelSkylakeC5(), core.Options{
		Level: core.OptTransformElim, Threads: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(mod.Close)
	volume := mod.Graph.Input.OutShape.Volume()

	f.Add([]byte(`{"inputs":[{"name":"input","shape":[1,3,32,32],"datatype":"FP32","data":[0]}]}`))
	f.Add([]byte(`{"inputs":[`))
	f.Add([]byte(`{"inputs":[]}`))
	f.Add([]byte(`{"inputs":[{},{}]}`))
	f.Add([]byte(`{"inputs":[{"shape":[1000000000,3],"data":[1]}]}`))
	f.Add([]byte(`{"inputs":[{"shape":[-1,-3,-32,-32],"datatype":"FP32","data":[]}]}`))
	f.Add([]byte(`{"inputs":[{"shape":[1,3,32,32],"datatype":"INT8","data":[1]}]}`))
	f.Add([]byte(`{"id":"x","inputs":[{"name":"input","shape":[1,3,32,32],"datatype":"FP32"}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	tensorBody := func(data string) []byte {
		return []byte(`{"id":"r","inputs":[{"name":"input","shape":[1,3,32,32],"datatype":"FP32","data":[` + data + `]}]}`)
	}
	full := strings.Repeat("0.5,", volume-1)
	// Number edge cases, each in a full-volume body that is served.
	for _, n := range []string{"-0", "1e-45", "3.4028235e38", "1E+2", "-1.5e-3", "0.1"} {
		f.Add(tensorBody(full + n))
	}
	// Out of float32 range, and grammar violations strconv would accept.
	for _, n := range []string{"1e39", "-1e39", "1e-50", "+1", ".5", "1.", "01", "-", "1e", "NaN", "Infinity", "0x1p-2", "1_0", "0.5e+", `"1"`} {
		f.Add(tensorBody("1," + n + ",2"))
	}
	f.Add(tensorBody(full + "1,1")) // one float past the volume
	f.Add([]byte(`{"inputs":[{"shape":[1.0,3,32,32],"data":[1]}]}`))
	f.Add([]byte(`{"inputs":[{"shape":[1e0,3,99999999999999999999,32],"data":[1]}]}`))
	// Key variants: case-folded, repeated, unknown with nested values.
	f.Add([]byte(`{"ID":"a","Inputs":[{"Name":"input","SHAPE":[1,3,32,32],"DataType":"FP32","Data":[1]}]}`))
	f.Add([]byte(`{"Id":"a","inputs":[{"data":[1]}]}`))
	f.Add([]byte(`{"inputs":[{"Name":"n","data":[1]}]}`))
	f.Add([]byte(`{"inputs":[{"data":[1,2],"data":[3]}]}`))
	f.Add([]byte(`{"inputs":[{"data":[1,2]}],"inputs":[{"shape":[1,3,32,32]}]}`))
	f.Add([]byte(`{"id":"a","id":"b","inputs":[{}]}`))
	f.Add([]byte(`{"parameters":{"a":[1,{"b":null}],"c":"d"},"inputs":[{"parameters":{"x":[]},"data":[1]}],"outputs":[{"name":"o"}]}`))
	// Odd values: escaped, non-ASCII and invalid-UTF-8 strings, and nulls.
	f.Add([]byte(`{"id":"a\"b\u00e9\n","inputs":[{"name":"in\\put","data":[1]}]}`))
	f.Add([]byte(`{"id":"é✓","inputs":[{"datatype":"FP32","data":[1]}]}`))
	f.Add([]byte("{\"id\":\"\xff\xfe\",\"inputs\":[{\"data\":[1]}]}"))
	f.Add([]byte("{\"id\":\"a\tb\",\"inputs\":[{\"data\":[1]}]}"))
	f.Add([]byte(`{"id":null,"inputs":[{"name":null,"shape":null,"datatype":null,"data":null}]}`))
	f.Add([]byte(`{"inputs":[null]}`))
	f.Add([]byte(`{"inputs":null}`))
	f.Add([]byte(`{"inputs":[{"data":[1,null,2]}]}`))
	// Whitespace everywhere, and trailing bytes.
	f.Add([]byte(" \t\r\n{ \"id\" : \"w\" ,\n\"inputs\"\t:\r[ { \"shape\" : [ 1 , 3 , 32 , 32 ] , \"data\" : [ 1 , -2.5e1 ] } ] } \n"))
	f.Add(append(tensorBody("1"), "   \n"...))
	f.Add(append(tensorBody("1"), "garbage"...))
	f.Add(append(tensorBody("1"), "{}"...))
	f.Add(append(tensorBody("1"), 0))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"inputs":[{}]}`))
	f.Add([]byte(`{"inputs":[{"data":[1],}]}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var want InferRequest
		wantErr := json.Unmarshal(data, &want)
		var got InferRequest
		for _, vol := range []int{4, volume} { // the module's volume last: got is what the server serves
			var err error
			got, err = decodeInfer(data, vol)
			if errText(err) != errText(wantErr) {
				t.Fatalf("volume %d: decode error %v, encoding/json %v", vol, err, wantErr)
			}
			if err == nil && !sameRequest(got, want) {
				t.Fatalf("volume %d: decoded %+v, encoding/json %+v", vol, got, want)
			}
		}
		if wantErr != nil {
			return // the HTTP layer answers 400; nothing further to validate
		}
		in, err := requestTensor(mod, &got)
		if (in == nil) == (err == nil) {
			t.Fatalf("requestTensor: tensor=%v err=%v — want exactly one", in, err)
		}
		wantIn, wantTErr := requestTensor(mod, &want)
		if errText(err) != errText(wantTErr) {
			t.Fatalf("requestTensor error %v, encoding/json path %v", err, wantTErr)
		}
		if err == nil && (!slices.Equal(in.Shape, wantIn.Shape) || !sameFloats(in.Data, wantIn.Data)) {
			t.Fatal("tensor differs from the encoding/json path's")
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func sameRequest(a, b InferRequest) bool {
	if a.ID != b.ID || len(a.Inputs) != len(b.Inputs) {
		return false
	}
	for i, x := range a.Inputs {
		y := b.Inputs[i]
		if x.Name != y.Name || x.Datatype != y.Datatype || !slices.Equal(x.Shape, y.Shape) || !sameFloats(x.Data, y.Data) {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}
