package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// The benchmark's own load generator. It differs from internal/loadgen in
// the two ways that matter for a tail: every request has a due time fixed
// before the run and is timed from it, and a due request waits for a free
// lane instead of being dropped — so a server stall lengthens the tail
// rather than shortening the sample.

// op is one scheduled request: when it is due (from the start of the phase;
// unused in a closed loop), which model it addresses and which input it
// carries.
type op struct {
	due   time.Duration
	model int
	input int
}

// zipfCDF is the cumulative distribution of Zipf(s=1) over n ranks.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	var total float64
	for k := range cdf {
		total += 1 / float64(k+1)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return cdf
}

// makeSchedule makes n operations from the seed alone: due times on a fixed
// grid at the given rate, the model Zipf-drawn over nModels ranks, the input
// uniform over nInputs. The same seed always gives the same schedule.
func makeSchedule(seed int64, n int, rate float64, nModels, nInputs int) []op {
	rng := rand.New(rand.NewSource(seed))
	cdf := zipfCDF(nModels)
	ops := make([]op, n)
	for i := range ops {
		u := rng.Float64()
		model := 0
		for model < nModels-1 && u > cdf[model] {
			model++
		}
		ops[i] = op{
			due:   time.Duration(float64(i) / rate * float64(time.Second)),
			model: model,
			input: rng.Intn(nInputs),
		}
	}
	return ops
}

// refTensor is one expected output: shape and exact float32 bit patterns.
type refTensor struct {
	shape []int
	bits  []uint32
}

// genModel is what the generator knows about one served model: where to
// send, the request bodies (marshalled once, reused for every request) and
// the reference outputs of a direct Session.Run per input.
type genModel struct {
	name     string
	inferURL string
	loadURL  string
	bodies   [][]byte
	refs     [][]refTensor
}

// serveAt points the model at the server listening at base.
func (g *genModel) serveAt(base string) {
	g.inferURL = base + "/v2/models/" + g.name + "/infer"
	g.loadURL = base + "/v2/repository/models/" + g.name + "/load"
}

// addInput marshals one input's request body and stores its reference.
func (g *genModel) addInput(shape []int, data []float32, outs []refTensor) error {
	body, err := json.Marshal(serve.InferRequest{Inputs: []serve.InferTensor{{
		Name: "input", Shape: shape, Datatype: "FP32", Data: data,
	}}})
	if err != nil {
		return err
	}
	g.bodies = append(g.bodies, body)
	g.refs = append(g.refs, outs)
	return nil
}

// opSample is one operation's outcome. Latency runs from the due time (the
// send time in a closed loop) to the final answer; lateness is how long
// after its due time the operation was sent; done is when the final answer
// arrived, measured from the start of the phase.
type opSample struct {
	id                      int
	latency, lateness, done time.Duration
	ok                      bool
}

// genStats is what one phase observed. roundTrip holds one HTTP exchange of
// each request answered 200; loadCall each load POST answered 200.
type genStats struct {
	samples   []opSample
	roundTrip []time.Duration
	loadCall  []time.Duration
	elapsed   time.Duration

	sent, ok, mismatch              int
	http429, http503, http504, h5xx int
	transport                       int
	retries409                      int
	loads, cold                     int
	failed                          int
}

func (s *genStats) merge(o *genStats) {
	s.samples = append(s.samples, o.samples...)
	s.roundTrip = append(s.roundTrip, o.roundTrip...)
	s.loadCall = append(s.loadCall, o.loadCall...)
	s.sent += o.sent
	s.ok += o.ok
	s.mismatch += o.mismatch
	s.http429 += o.http429
	s.http503 += o.http503
	s.http504 += o.http504
	s.h5xx += o.h5xx
	s.transport += o.transport
	s.retries409 += o.retries409
	s.loads += o.loads
	s.cold += o.cold
	s.failed += o.failed
}

// latenciesMS returns the latencies in schedule order, in milliseconds.
func (s *genStats) latenciesMS() []float64 {
	return s.column(func(o opSample) time.Duration { return o.latency })
}

func (s *genStats) latenessMS() []float64 {
	return s.column(func(o opSample) time.Duration { return o.lateness })
}

func (s *genStats) column(field func(opSample) time.Duration) []float64 {
	out := make([]float64, len(s.samples))
	for i, o := range s.samples {
		out[i] = ms(field(o))
	}
	return out
}

// missFrac is the share of operations that failed or finished later than
// the limit after their due time.
func (s *genStats) missFrac(limitMS float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	miss := 0
	for _, o := range s.samples {
		if !o.ok || ms(o.latency) > limitMS {
			miss++
		}
	}
	return float64(miss) / float64(len(s.samples))
}

// throughput is the capacity estimate of a closed-loop phase: verified
// completions per second in each whole window of the phase, and the best
// window, for the reason bestChunk gives.
func (s *genStats) throughput(window time.Duration) (perSecond float64, windows int) {
	windows = int(s.elapsed / window)
	if windows < 1 {
		return float64(s.ok) / s.elapsed.Seconds(), 1
	}
	counts := make([]float64, windows)
	for _, o := range s.samples {
		if w := int(o.done / window); o.ok && w < windows {
			counts[w]++
		}
	}
	return slices.Max(counts) / window.Seconds(), windows
}

// generator drives models over HTTP through a fixed number of lanes, one
// connection each, and no goroutine doing I/O beyond the lanes.
type generator struct {
	client *http.Client
	lanes  int
	models []*genModel
	// loadOn503 makes a lane answer `503 unloaded` by loading the model and
	// retrying, as a repository client does.
	loadOn503 bool
	// rec, when set, makes the lanes record spans and tag their requests so
	// the handler middleware records the server's side of each.
	rec  *recorder
	bufs sync.Pool
}

func newGenerator(lanes int, models []*genModel, loadOn503 bool) *generator {
	return &generator{
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        lanes,
			MaxIdleConnsPerHost: lanes,
			MaxConnsPerHost:     lanes,
			DisableCompression:  true,
		}},
		lanes:     lanes,
		models:    models,
		loadOn503: loadOn503,
		bufs:      sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// maxAttempts bounds how often one operation is retried through 503/409
// transitions before it counts as failed.
const maxAttempts = 50

// lane is one connection's reusable state.
type lane struct {
	g     *generator
	stats genStats
	resp  serve.InferResponse
}

// post sends one request and reads the whole response into a pooled buffer.
// The caller returns the buffer with g.bufs.Put.
func (g *generator) post(url string, body []byte, header http.Header) (int, *bytes.Buffer, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if header != nil {
		req.Header = header
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	buf := g.bufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		g.bufs.Put(buf)
		return 0, nil, err
	}
	return resp.StatusCode, buf, nil
}

// matches reports whether a 200 body carries exactly the reference outputs.
func (l *lane) matches(body []byte, want []refTensor) bool {
	l.resp.Outputs = l.resp.Outputs[:0]
	if err := json.Unmarshal(body, &l.resp); err != nil || len(l.resp.Outputs) != len(want) {
		return false
	}
	for i, o := range l.resp.Outputs {
		if len(o.Data) != len(want[i].bits) || len(o.Shape) != len(want[i].shape) {
			return false
		}
		for j, d := range o.Shape {
			if d != want[i].shape[j] {
				return false
			}
		}
		for j, v := range o.Data {
			if math.Float32bits(v) != want[i].bits[j] {
				return false
			}
		}
	}
	return true
}

// do carries one operation to its final answer and records it. due is the
// instant latency is measured from, epoch the start of the phase.
func (l *lane) do(id int, o op, due, epoch time.Time) {
	g, s := l.g, &l.stats
	m := g.models[o.model]
	req := strconv.Itoa(id)
	sent := time.Now()
	s.sent++
	opSpan := g.rec.reserve("loadgen.op", req, 0, due)

	ok, cold := false, false
	for attempt := 0; attempt < maxAttempts && !ok; attempt++ {
		t0 := time.Now()
		var header http.Header
		var rt int
		if g.rec != nil {
			rt = g.rec.reserve("net.round_trip", req, opSpan, t0)
			header = http.Header{"X-Bench-Span": {strconv.Itoa(rt)}, "X-Bench-Id": {req}}
		}
		code, buf, err := g.post(m.inferURL, m.bodies[o.input], header)
		t1 := time.Now()
		if err != nil {
			g.rec.finishAs(rt, "net.round_trip_failed", t1)
			s.transport++
			break
		}
		if code == http.StatusOK {
			g.rec.finish(rt, t1)
		} else {
			g.rec.finishAs(rt, "net.round_trip_refused", t1)
		}
		retry := false
		switch {
		case code == http.StatusOK:
			s.roundTrip = append(s.roundTrip, t1.Sub(t0))
			if l.matches(buf.Bytes(), m.refs[o.input]) {
				ok = true
			} else {
				s.mismatch++
			}
		case code == http.StatusTooManyRequests:
			s.http429++
		case code == http.StatusGatewayTimeout:
			s.http504++
		case code == http.StatusServiceUnavailable:
			s.http503++
			if g.loadOn503 {
				cold = true
				retry = l.load(m, req, opSpan)
			}
		case code >= 500:
			s.h5xx++
		}
		g.bufs.Put(buf)
		if !ok && !retry {
			break
		}
	}
	done := time.Now()
	g.rec.finish(opSpan, done)
	s.samples = append(s.samples, opSample{id: id, latency: done.Sub(due), lateness: sent.Sub(due), done: done.Sub(epoch), ok: ok})
	if ok {
		s.ok++
	} else {
		s.failed++
	}
	if cold {
		s.cold++
	}
}

// load asks the repository to bring a model up and reports whether the
// inference is worth retrying. 409 means another lane's load or an eviction
// is in flight on this model: back off briefly and let the retry find out.
func (l *lane) load(m *genModel, req string, parent int) bool {
	g, s := l.g, &l.stats
	t0 := time.Now()
	code, buf, err := g.post(m.loadURL, nil, nil)
	t1 := time.Now()
	g.rec.add("serve.load_call", req, parent, t0, t1)
	if err != nil {
		s.transport++
		return false
	}
	g.bufs.Put(buf)
	switch code {
	case http.StatusOK:
		s.loads++
		s.loadCall = append(s.loadCall, t1.Sub(t0))
		return true
	case http.StatusConflict:
		s.retries409++
		time.Sleep(500 * time.Microsecond)
		return true
	}
	s.h5xx++
	return false
}

// openLoop offers ops on their schedule through the lanes. Lanes take
// operations in schedule order; a lane that is free early sleeps until the
// next due time, and when every lane is busy the due request waits — that
// wait is part of its latency.
func (g *generator) openLoop(ops []op) *genStats {
	epoch := time.Now()
	var next atomic.Int64
	return g.runLanes(func(l *lane) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(ops) {
				return
			}
			due := epoch.Add(ops[i].due)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			l.do(i, ops[i], due, epoch)
		}
	})
}

// closedLoop has every lane send its next request as soon as the previous
// one is answered, cycling through ops, until d has passed: the capacity
// measurement.
func (g *generator) closedLoop(ops []op, d time.Duration) *genStats {
	epoch := time.Now()
	deadline := epoch.Add(d)
	var next atomic.Int64
	return g.runLanes(func(l *lane) {
		for time.Now().Before(deadline) {
			i := int(next.Add(1)) - 1
			l.do(i, ops[i%len(ops)], time.Now(), epoch)
		}
	})
}

func (g *generator) runLanes(body func(*lane)) *genStats {
	lanes := make([]*lane, g.lanes)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range lanes {
		lanes[i] = &lane{g: g}
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			body(l)
		}(lanes[i])
	}
	wg.Wait()
	total := &genStats{elapsed: time.Since(start)}
	for _, l := range lanes {
		total.merge(&l.stats)
	}
	sort.Slice(total.samples, func(i, j int) bool { return total.samples[i].id < total.samples[j].id })
	return total
}

// scrape fetches GET /metrics and sums every series of each name across its
// label sets (histogram _sum and _count series included), timing the call.
func scrape(client *http.Client, base string) (map[string]float64, time.Duration, error) {
	start := time.Now()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics answered %d", resp.StatusCode)
	}
	sums := map[string]float64{}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if br := bytes.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err != nil {
			continue
		}
		sums[string(name)] += v
	}
	return sums, elapsed, nil
}
