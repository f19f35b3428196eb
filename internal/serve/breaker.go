package serve

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy: all traffic admitted
	breakerOpen                         // degraded: traffic refused until cooldown
	breakerHalfOpen                     // probing: one request admitted to test recovery
)

// Breaker is a per-model circuit breaker over batch execution failures. It
// trips open after Threshold failures inside a sliding Window — repeated
// panics or executor errors mean the model is hurting itself and its
// co-hosted neighbours (each panic burns a pooled session and a batch of
// requests) — and then refuses traffic for Cooldown. After the cooldown one
// probe request is admitted (half-open); its success closes the breaker,
// its failure re-opens it for another cooldown.
//
// All methods are safe for concurrent use. The zero value is not usable;
// construct with newBreaker.
type Breaker struct {
	threshold int
	window    time.Duration
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	// onTransition, when set, is called with the state entered ("open",
	// "half_open", "closed") on every state change — the registry hangs the
	// model's breaker-transition metric on it. Set before traffic; called
	// with b.mu held, so it must not call back into the breaker.
	onTransition func(state string)

	mu       sync.Mutex
	state    breakerState
	failures []time.Time // failure timestamps inside the sliding window
	openedAt time.Time
	probing  bool // half-open: a probe is in flight
}

// OnTransition installs the state-change callback. It must be installed
// before the breaker sees traffic.
func (b *Breaker) OnTransition(fn func(state string)) { b.onTransition = fn }

func (b *Breaker) transitioned(state string) {
	if b.onTransition != nil {
		b.onTransition(state)
	}
}

func newBreaker(threshold int, window, cooldown time.Duration) *Breaker {
	return &Breaker{
		threshold: threshold,
		window:    window,
		cooldown:  cooldown,
		now:       time.Now,
	}
}

// Allow reports whether a request may proceed. In the open state it returns
// false until the cooldown elapses, then transitions to half-open and admits
// exactly one probe; further requests are refused until that probe reports
// through Record.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		b.transitioned("half_open")
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports one admitted request's batch-execution outcome. A nil err
// is a success: it closes a half-open breaker and clears the failure window.
// A non-nil err counts toward the threshold; crossing it (or failing the
// half-open probe) opens the breaker.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if err == nil {
		if b.state == breakerHalfOpen {
			b.state = breakerClosed
			b.failures = b.failures[:0]
			b.probing = false
			b.transitioned("closed")
		}
		return
	}
	if b.state == breakerHalfOpen {
		// The probe failed: back to a full cooldown.
		b.state = breakerOpen
		b.openedAt = now
		b.probing = false
		b.transitioned("open")
		return
	}
	if b.state == breakerOpen {
		return // refused-window stragglers; already open
	}
	// Slide the window, then count.
	keep := b.failures[:0]
	for _, t := range b.failures {
		if now.Sub(t) < b.window {
			keep = append(keep, t)
		}
	}
	b.failures = append(keep, now)
	if len(b.failures) >= b.threshold {
		b.state = breakerOpen
		b.openedAt = now
		b.failures = b.failures[:0]
		b.transitioned("open")
	}
}

// Degraded reports whether the breaker currently refuses (non-probe)
// traffic. Unlike Allow it has no side effects, so health endpoints can poll
// it without consuming the half-open probe slot.
func (b *Breaker) Degraded() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != breakerClosed
}

// RetryAfter reports how long until the breaker would next admit a request:
// the remaining cooldown when open, zero otherwise.
func (b *Breaker) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return 0
	}
	if rem := b.cooldown - b.now().Sub(b.openedAt); rem > 0 {
		return rem
	}
	return 0
}
