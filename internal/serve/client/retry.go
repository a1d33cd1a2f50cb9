package client

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Backoff is a bounded exponential backoff schedule with jitter, used
// to absorb 429 backpressure instead of failing the caller. The
// schedule is delay(k) = min(Cap, Base·Mult^k) stretched by a jitter
// factor uniform in [1-Jitter, 1+Jitter]; jitter decorrelates the
// retry storms that synchronized clients would otherwise produce
// against a saturated owner node.
//
// The jitter stream is seeded, so a Backoff with a fixed Seed replays
// an identical schedule — the retry tables in the tests pin it with a
// fake clock.
type Backoff struct {
	// Base is the first delay (default 50ms).
	Base time.Duration
	// Cap bounds every delay (default 2s).
	Cap time.Duration
	// Mult is the growth factor (default 2).
	Mult float64
	// Jitter is the ± stretch fraction in [0, 1) (default 0.2; set
	// NoJitter for exact exponential delays).
	Jitter float64
	// NoJitter disables the stretch entirely.
	NoJitter bool
	// Retries bounds the retry count after the initial attempt
	// (default 8).
	Retries int
	// Seed fixes the jitter stream (0 seeds from 1).
	Seed int64

	// sleep is the test seam; nil means context-aware time.Sleep.
	sleep func(context.Context, time.Duration) error

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
}

// DefaultBackoff returns the standard schedule: 50ms doubling to a 2s
// cap, ±20% jitter, 8 retries (≈4s of accumulated patience).
func DefaultBackoff() *Backoff { return &Backoff{} }

func (b *Backoff) init() {
	b.once.Do(func() {
		if b.Base <= 0 {
			b.Base = 50 * time.Millisecond
		}
		if b.Cap <= 0 {
			b.Cap = 2 * time.Second
		}
		if b.Mult < 1 {
			b.Mult = 2
		}
		if b.Jitter <= 0 || b.Jitter >= 1 {
			b.Jitter = 0.2
		}
		if b.NoJitter {
			b.Jitter = 0
		}
		if b.Retries <= 0 {
			b.Retries = 8
		}
		seed := b.Seed
		if seed == 0 {
			seed = 1
		}
		b.rng = rand.New(rand.NewSource(seed))
		if b.sleep == nil {
			b.sleep = sleepCtx
		}
	})
}

// MaxRetries returns the retry bound.
func (b *Backoff) MaxRetries() int {
	b.init()
	return b.Retries
}

// Delay returns the k-th retry's delay (k counts from 0), advancing
// the jitter stream. Safe for concurrent use.
func (b *Backoff) Delay(k int) time.Duration {
	b.init()
	d := float64(b.Base)
	for i := 0; i < k; i++ {
		d *= b.Mult
		if d >= float64(b.Cap) {
			d = float64(b.Cap)
			break
		}
	}
	if d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	if b.Jitter > 0 {
		b.mu.Lock()
		u := b.rng.Float64()
		b.mu.Unlock()
		d *= 1 - b.Jitter + float64(2*b.Jitter*u)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Sleep waits out the k-th retry delay, returning early with ctx's
// error if the context dies first.
func (b *Backoff) Sleep(ctx context.Context, k int) error {
	b.init()
	return b.sleep(ctx, b.Delay(k))
}

// sleepCtx is a context-aware sleep.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
