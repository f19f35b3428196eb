package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestScheduleIsDeterministicForASeed(t *testing.T) {
	a := makeSchedule(7, 500, 50, 6, 16)
	b := makeSchedule(7, 500, 50, 6, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, makeSchedule(8, 500, 50, 6, 16)) {
		t.Fatal("different seeds gave the same schedule")
	}
	perModel := make([]int, 6)
	for i, o := range a {
		if want := time.Duration(float64(i) / 50 * float64(time.Second)); o.due != want {
			t.Fatalf("op %d due %v, want the fixed grid's %v", i, o.due, want)
		}
		if o.model < 0 || o.model >= 6 || o.input < 0 || o.input >= 16 {
			t.Fatalf("op %d out of range: %+v", i, o)
		}
		perModel[o.model]++
	}
	// Zipf(s=1): rank 1 carries 1/H6 = 41% of the draws, rank 6 carries 7%.
	if perModel[0] < 150 || perModel[0] > 260 || perModel[5] > 70 || perModel[0] <= perModel[5] {
		t.Errorf("model draws %v do not look like Zipf(1) over six ranks", perModel)
	}
}

func TestZipfCDF(t *testing.T) {
	cdf := zipfCDF(6)
	if math.Abs(cdf[0]-1/2.45) > 1e-12 || cdf[5] != 1 {
		t.Errorf("zipfCDF(6) = %v", cdf)
	}
}

// fakeModel serves a fixed two-element output and returns the generator's
// view of it.
func fakeModel(t *testing.T, h http.HandlerFunc) (*genModel, func()) {
	t.Helper()
	srv := httptest.NewServer(h)
	gm := &genModel{name: "fake"}
	gm.serveAt(srv.URL)
	out := []refTensor{{shape: []int{1, 2}, bits: []uint32{math.Float32bits(0.5), math.Float32bits(0.25)}}}
	if err := gm.addInput([]int{1, 1, 1, 2}, []float32{1, 2}, out); err != nil {
		t.Fatal(err)
	}
	return gm, srv.Close
}

func writeFakeOutput(w http.ResponseWriter, data ...float32) {
	json.NewEncoder(w).Encode(serve.InferResponse{ModelName: "fake", Outputs: []serve.InferTensor{{
		Name: "output_0", Shape: []int{1, 2}, Datatype: "FP32", Data: data,
	}}})
}

// A stalled server must lengthen the tail, not shorten the sample: every
// scheduled request is sent, and one that had to wait for the lane is timed
// from its due time.
func TestOpenLoopTimesFromDueAndDropsNothing(t *testing.T) {
	const stall = 30 * time.Millisecond
	gm, stop := fakeModel(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(stall)
		writeFakeOutput(w, 0.5, 0.25)
	})
	defer stop()
	g := newGenerator(1, []*genModel{gm}, false)
	defer g.close()
	// Five requests due 10 ms apart on one lane that takes 30 ms each.
	st := g.openLoop(makeSchedule(1, 5, 100, 1, 1))
	if st.sent != 5 || st.ok != 5 || st.failed != 0 {
		t.Fatalf("sent %d ok %d failed %d, want 5/5/0", st.sent, st.ok, st.failed)
	}
	// The last is due at 40 ms and cannot start before 120 ms.
	if last := st.samples[4].latency; last < 4*stall-40*time.Millisecond+stall {
		t.Errorf("last latency %v does not include the wait for the lane", last)
	}
	if late := st.samples[4].lateness; late < 70*time.Millisecond {
		t.Errorf("last request went out %v late, want at least 70ms", late)
	}
	if rt := st.roundTrip[4]; rt > st.samples[4].latency-50*time.Millisecond {
		t.Errorf("round trip %v should be far below the from-due latency %v", rt, st.samples[4].latency)
	}
	if miss := st.missFrac(60); miss < 0.4 {
		t.Errorf("missFrac(60ms) = %g, want the queued requests to miss", miss)
	}
}

func TestMismatchedOutputFails(t *testing.T) {
	gm, stop := fakeModel(t, func(w http.ResponseWriter, r *http.Request) {
		writeFakeOutput(w, 0.5, 0.2500001)
	})
	defer stop()
	g := newGenerator(2, []*genModel{gm}, false)
	defer g.close()
	st := g.openLoop(makeSchedule(1, 4, 1000, 1, 1))
	if st.mismatch != 4 || st.failed != 4 || st.ok != 0 {
		t.Errorf("mismatch %d failed %d ok %d, want 4/4/0: a last-bit difference must fail", st.mismatch, st.failed, st.ok)
	}
}

// The repository client: `503 unloaded` is answered with a load call, a 409
// from the load with a retry, and the operation ends in a verified 200.
func TestLoadOn503RetriesToA200(t *testing.T) {
	var loaded atomic.Bool
	var loadCalls atomic.Int32
	gm, stop := fakeModel(t, func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/load"):
			if loadCalls.Add(1) == 1 {
				w.WriteHeader(http.StatusConflict)
				return
			}
			loaded.Store(true)
			w.WriteHeader(http.StatusOK)
		case !loaded.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			writeFakeOutput(w, 0.5, 0.25)
		}
	})
	defer stop()
	g := newGenerator(1, []*genModel{gm}, true)
	defer g.close()
	st := g.openLoop(makeSchedule(1, 2, 1000, 1, 1))
	if st.ok != 2 || st.failed != 0 {
		t.Fatalf("ok %d failed %d, want 2/0", st.ok, st.failed)
	}
	if st.cold != 1 || st.loads != 1 || st.retries409 != 1 || st.http503 != 2 {
		t.Errorf("cold %d loads %d retries409 %d http503 %d, want 1/1/1/2", st.cold, st.loads, st.retries409, st.http503)
	}

	// Without the repository behaviour a 503 is final.
	loaded.Store(false)
	plain := newGenerator(1, []*genModel{gm}, false)
	defer plain.close()
	if st := plain.openLoop(makeSchedule(1, 1, 1000, 1, 1)); st.failed != 1 || st.http503 != 1 {
		t.Errorf("failed %d http503 %d, want 1/1", st.failed, st.http503)
	}
}

func TestScrapeSumsSeriesAcrossLabels(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("# HELP x y\n# TYPE x counter\n" +
			"neocpu_queue_wait_seconds_sum{model=\"a\"} 0.5\n" +
			"neocpu_queue_wait_seconds_sum{model=\"b\"} 0.25\n" +
			"neocpu_queue_wait_seconds_count{model=\"a\"} 3\n" +
			"neocpu_model_evictions_total 7\n"))
	}))
	defer srv.Close()
	sums, elapsed, err := scrape(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if sums["neocpu_queue_wait_seconds_sum"] != 0.75 || sums["neocpu_queue_wait_seconds_count"] != 3 || sums["neocpu_model_evictions_total"] != 7 {
		t.Errorf("sums = %v", sums)
	}
	if elapsed <= 0 {
		t.Error("the scrape was not timed")
	}
}
