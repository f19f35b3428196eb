package serve

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// accessLogger writes one JSON line per inference request — the structured
// access log. The encoder is hand-rolled over a reused buffer under one
// mutex, so a log line costs the hot path a lock and a Write, not a
// json.Marshal's worth of allocations.
//
// Line schema (field order is fixed):
//
//	{"time":"2026-01-02T15:04:05.999999999Z","model":"tiny-cnn","code":200,
//	 "latency_ms":1.234,"batch_id":7,"deadline_ms":30000,"id":"req-1"}
//
// batch_id is the request's execution ID: nonzero iff the request ran on a
// session, 0 for requests that never did (4xx, 429, admission-time 504).
// deadline_ms is the request's resolved budget (0 when budgets are
// disabled); id appears only when the client sent one.
type accessLogger struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	now func() time.Time // injectable clock for tests
}

func newAccessLogger(w io.Writer) *accessLogger {
	return &accessLogger{w: w, now: time.Now}
}

func (l *accessLogger) log(model string, code int, latency time.Duration, execID uint64, deadline time.Duration, id string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf[:0]
	b = append(b, `{"time":"`...)
	b = l.now().UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","model":`...)
	b = appendJSONString(b, model)
	b = append(b, `,"code":`...)
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, `,"latency_ms":`...)
	b = strconv.AppendFloat(b, float64(latency)/float64(time.Millisecond), 'f', 3, 64)
	b = append(b, `,"batch_id":`...)
	b = strconv.AppendUint(b, execID, 10)
	b = append(b, `,"deadline_ms":`...)
	b = strconv.AppendInt(b, deadline.Milliseconds(), 10)
	if id != "" {
		b = append(b, `,"id":`...)
		b = appendJSONString(b, id)
	}
	b = append(b, '}', '\n')
	l.buf = b
	l.w.Write(b)
}

// appendJSONString appends s as a JSON string literal: quotes, backslashes
// and control characters escaped, everything else (valid UTF-8 included)
// verbatim.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			b = append(b, '\\', '"')
		case c == '\\':
			b = append(b, '\\', '\\')
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
