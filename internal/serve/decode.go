package serve

import (
	"encoding/json"
	"io"
	"strconv"
)

// readBody reads a whole request body into one buffer, sized from the
// request's Content-Length when it is known and within limit (the cap the
// reader itself enforces), so the common body is read without regrowth.
func readBody(r io.Reader, contentLength, limit int64) ([]byte, error) {
	size := contentLength
	if size < 0 || size > limit {
		size = min(limit, 4096)
	}
	// One spare byte lets the read that reports io.EOF land without growing
	// a buffer the body exactly fills.
	buf := make([]byte, 0, size+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeInfer decodes an infer request body. The common body — one object
// with exact lower-case keys, each at most once, one input tensor, strings of
// printable ASCII without escapes, numbers in the JSON grammar, and at most
// volume floats of data — is scanned in one pass, with the data parsed
// straight into a slice of volume float32s. Anything else re-decodes body
// with json.Unmarshal, so error wording and the semantics of rare inputs
// (case-folded or unknown keys, repeated keys, nulls, escapes) stay
// encoding/json's. Both paths parse numbers with the same strconv calls, so
// they decode the same bits.
func decodeInfer(body []byte, volume int) (InferRequest, error) {
	s := inferScanner{b: body}
	if req, ok := s.request(volume); ok {
		return req, nil
	}
	var req InferRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// inferScanner walks an infer request body. Each method consumes one value
// and reports false on anything outside the fast grammar, leaving the
// caller to fall back.
type inferScanner struct {
	b []byte
	i int
}

func (s *inferScanner) request(volume int) (req InferRequest, ok bool) {
	var seen [2]bool // id, inputs
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return once(&seen[0]) && s.str(&req.ID)
		case "inputs":
			if !once(&seen[1]) || !s.eat('[') {
				return false
			}
			req.Inputs = make([]InferTensor, 1)
			return s.tensor(&req.Inputs[0], volume) && s.eat(']')
		}
		return false
	})
	s.skipSpace()
	return req, ok && s.i == len(s.b)
}

func (s *inferScanner) tensor(t *InferTensor, volume int) bool {
	var seen [4]bool // name, shape, datatype, data
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return once(&seen[0]) && s.str(&t.Name)
		case "shape":
			return once(&seen[1]) && s.ints(&t.Shape)
		case "datatype":
			return once(&seen[2]) && s.str(&t.Datatype)
		case "data":
			return once(&seen[3]) && s.floats(&t.Data, volume)
		}
		return false
	})
}

// once marks a key seen and reports whether it was new.
func once(seen *bool) bool {
	if *seen {
		return false
	}
	*seen = true
	return true
}

// object scans {"key": value, ...}, handing each key to field, which must
// consume the value.
func (s *inferScanner) object(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.token()
		if !ok || !s.eat(':') || !field(key) {
			return false
		}
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

func (s *inferScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, after any whitespace, if it comes next.
func (s *inferScanner) eat(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// token scans a string of printable ASCII without escapes and returns its
// contents.
func (s *inferScanner) token() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *inferScanner) str(dst *string) bool {
	tok, ok := s.token()
	*dst = string(tok)
	return ok
}

// number scans a token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which rejects forms
// strconv accepts (+1, .5, 1., Inf, 0x1p-2, 1_0).
func (s *inferScanner) number() ([]byte, bool) {
	s.skipSpace()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	tok := b[s.i:i]
	s.i = i
	return tok, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// array scans [elem, ...], calling elem once per element.
func (s *inferScanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.eat(',') {
			return s.eat(']')
		}
	}
}

// ints scans an array of integers. encoding/json parses an int with
// ParseInt(tok, 10, 64) and rejects what overflows int; parsing at the
// int's own size rejects the same tokens.
func (s *inferScanner) ints(dst *[]int) bool {
	out := make([]int, 0, 4)
	ok := s.array(func() bool {
		tok, ok := s.number()
		if !ok {
			return false
		}
		n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		out = append(out, int(n))
		return err == nil
	})
	*dst = out
	return ok
}

// floats scans an array of at most volume numbers into one preallocated
// slice, each parsed as encoding/json parses a float32.
func (s *inferScanner) floats(dst *[]float32, volume int) bool {
	out := make([]float32, 0, volume)
	ok := s.array(func() bool {
		tok, ok := s.number()
		if !ok || len(out) == volume {
			return false
		}
		f, err := strconv.ParseFloat(string(tok), 32)
		out = append(out, float32(f))
		return err == nil
	})
	*dst = out
	return ok
}
