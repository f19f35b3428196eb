package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

var (
	errClientGone      = fmt.Errorf("wrap: %w", context.Canceled)
	errShutdown        = fmt.Errorf("wrap: %w", ErrClosed)
	errDeadlineWrapped = fmt.Errorf("wrap: %w", context.DeadlineExceeded)
	errExec            = errors.New("kernel exploded")
)

// TestRetryAfterTracksQueueAndLatency: the Retry-After estimate must be
// derived from live state — waiters per session times one request's
// observed execution latency — not a hardcoded constant, with a 1-second
// floor before any request has been measured.
func TestRetryAfterTracksQueueAndLatency(t *testing.T) {
	p := &SessionPool{max: 4}
	b := &Admission{pool: p}

	// Cold: no request measured yet, estimate is unknown, floor applies.
	if w := b.EstimatedWait(); w != 0 {
		t.Fatalf("cold EstimatedWait = %v, want 0", w)
	}
	if got := b.RetryAfterSeconds(); got != 1 {
		t.Fatalf("cold RetryAfterSeconds = %d, want floor 1", got)
	}

	// One observed 3s run, nobody waiting: a new arrival's own run.
	b.observeLatency(3 * time.Second)
	if w := b.EstimatedWait(); w != 3*time.Second {
		t.Fatalf("EstimatedWait = %v, want 3s", w)
	}
	if got := b.RetryAfterSeconds(); got != 3 {
		t.Fatalf("RetryAfterSeconds = %d, want 3", got)
	}

	// Eight waiters on four sessions: two more rounds of runs ahead.
	p.waiting = 8
	if w := b.EstimatedWait(); w != 9*time.Second {
		t.Fatalf("EstimatedWait with 8 waiters = %v, want 9s", w)
	}
	if got := b.RetryAfterSeconds(); got != 9 {
		t.Fatalf("RetryAfterSeconds with 8 waiters = %d, want 9", got)
	}
	if st := b.Stats(); st.EstimatedWaitNS != int64(9*time.Second) {
		t.Fatalf("Stats().EstimatedWaitNS = %d, want 9s", st.EstimatedWaitNS)
	}

	// The latency estimate is an EWMA (α = 1/5), not last-observation-wins:
	// 3s then 1s folds to 2.6s.
	b.observeLatency(time.Second)
	if w := b.estimatedWait(0); w != 2600*time.Millisecond {
		t.Fatalf("EWMA after 3s,1s = %v, want 2.6s", w)
	}

	// Sub-second estimates still floor at 1.
	b2 := &Admission{pool: &SessionPool{max: 4}}
	b2.observeLatency(5 * time.Millisecond)
	if got := b2.RetryAfterSeconds(); got != 1 {
		t.Fatalf("sub-second RetryAfterSeconds = %d, want floor 1", got)
	}
}

// TestExecFailureClassification: only genuine execution failures may count
// toward a circuit breaker — client aborts and shutdown must not trip it.
func TestExecFailureClassification(t *testing.T) {
	if execFailure(nil) != nil {
		t.Fatal("nil classified as failure")
	}
	for _, err := range []error{errClientGone, errShutdown, errDeadlineWrapped} {
		if execFailure(err) != nil {
			t.Fatalf("%v classified as execution failure", err)
		}
	}
	if execFailure(errExec) == nil {
		t.Fatal("execution error not classified as failure")
	}
}
