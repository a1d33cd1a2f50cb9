// Fixture for ctxstride on the parallel join's shape: a worker literal
// whose claim loop has no header bound and polls cancellation only
// through the span it runs. Take the stride poll out of the span and
// the claim loop is left with none.
package embed

import (
	"context"
	"sync"
	"sync/atomic"
)

type result struct {
	ctx     context.Context
	aborted atomic.Bool
}

// cancelled is the solver's abort latch: a flag check, with the
// context polled behind it.
func (r *result) cancelled() bool {
	if r.aborted.Load() {
		return true
	}
	if r.ctx.Err() != nil {
		r.aborted.Store(true)
		return true
	}
	return false
}

// span sums [lo, hi) and polls the latch at stride boundaries.
func (r *result) span(lo, hi int) int {
	total := 0
	for v := lo; v < hi; v++ {
		if (v-lo)%512 == 0 && r.cancelled() {
			return total
		}
		total += v
	}
	return total
}

// blindSpan is span without its stride poll.
func (r *result) blindSpan(lo, hi int) int {
	total := 0
	for v := lo; v < hi; v++ {
		total += v
	}
	return total
}

// join claims chunks until none are left; its claim loop polls
// through span.
func (r *result) join(n, chunk, workers int) []int {
	sums := make([]int, (n+chunk-1)/chunk)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1)) - 1
				if ci >= len(sums) {
					return
				}
				lo := ci * chunk
				sums[ci] = r.span(lo, min(lo+chunk, n))
			}
		}()
	}
	wg.Wait()
	return sums
}

// blindJoin runs blindSpan: nothing in the claim loop's call tree
// polls, so a cancelled solve keeps joining until the chunks run out.
func (r *result) blindJoin(n, chunk, workers int) []int {
	sums := make([]int, (n+chunk-1)/chunk)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for { // want ctxstride
				ci := int(next.Add(1)) - 1
				if ci >= len(sums) {
					return
				}
				lo := ci * chunk
				sums[ci] = r.blindSpan(lo, min(lo+chunk, n))
			}
		}()
	}
	wg.Wait()
	return sums
}
