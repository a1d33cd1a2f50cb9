// Package flow is a replint fixture for the shardwrite rule: workers —
// function literals launched with `go` or handed to a runLevel-style
// fan-out — may only write captured state through an index that is a
// shard key (their own parameter, the launching loop's variable, or an
// atomic claim), directly or inside a callee they hand the reference
// to.
package flow

import (
	"sync"
	"sync/atomic"
)

// runLevels is a worker-spawning callee by naming convention: anything
// passed to it runs concurrently.
func runLevels(n int, fn func(i int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) {
			fn(i)
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// badSum accumulates into a captured scalar from a goroutine: the
// textbook shared write.
func badSum(xs []float64) float64 {
	total := 0.0
	done := make(chan struct{})
	go func() {
		for _, x := range xs {
			total += x // want shardwrite
		}
		close(done)
	}()
	<-done
	return total
}

// boundWorker writes captured state from a literal bound to a variable
// that is later launched: still a worker, still flagged.
func boundWorker() int {
	hits := 0
	done := make(chan struct{})
	w := func() {
		hits++ // want shardwrite
		close(done)
	}
	go w()
	<-done
	return hits
}

// squares writes only through its own parameter index: sibling workers
// touch disjoint elements, the partitioned-write idiom, not flagged.
func squares(xs []float64) []float64 {
	out := make([]float64, len(xs))
	runLevels(len(xs), func(i int) {
		out[i] = xs[i] * xs[i]
	})
	return out
}

// localOnly writes a variable declared inside the worker: not captured,
// not flagged.
func localOnly(xs []int) {
	runLevels(len(xs), func(i int) {
		acc := 0
		for _, x := range xs {
			acc += x
		}
		_ = acc
	})
}

// singleWriter has exactly one goroutine touching the captured slot and
// documents why that cannot race.
func singleWriter(xs []int) int {
	best := -1
	done := make(chan struct{})
	go func() {
		//replint:ignore shardwrite -- fixture: the lone worker is the only writer; the read is gated on done
		best = xs[0] // wantsuppressed shardwrite
		close(done)
	}()
	<-done
	return best
}

// bump adds into the slot its pointer argument addresses: callers
// that hand it shared storage write through it.
func bump(dst *float64, x float64) {
	*dst += x
}

// fanSum hands the same captured accumulator to every worker through
// bump: the write happens in the callee, invisible lexically — the
// interprocedural fire.
func fanSum(xs []float64) float64 {
	total := 0.0
	runLevels(len(xs), func(i int) {
		bump(&total, xs[i]) // want shardwrite
	})
	return total
}

// fanSlots gives each worker its own slot through the same callee:
// the argument is indexed by the worker parameter, clean.
func fanSlots(xs []float64) float64 {
	slots := make([]float64, len(xs))
	runLevels(len(xs), func(i int) {
		bump(&slots[i], xs[i]*xs[i])
	})
	total := 0.0
	for _, s := range slots {
		total += s
	}
	return total
}

// dualWrite writes the captured maximum directly from loop-launched
// workers.
func dualWrite(xs []float64) float64 {
	done := make(chan struct{})
	peak := 0.0
	for _, x := range xs {
		go func(x float64) {
			if x > peak {
				peak = x // want shardwrite
			}
			done <- struct{}{}
		}(x)
	}
	for range xs {
		<-done
	}
	return peak
}

// claimSlots is the atomic-claim idiom: each worker takes unique slot
// indices from a shared counter, so writes are disjoint and the claim
// is recognized as a shard key.
func claimSlots(n int) []int {
	var next atomic.Int64
	out := make([]int, n)
	done := make(chan struct{})
	for w := 0; w < 3; w++ {
		go func() {
			for {
				ci := int(next.Add(1)) - 1
				if ci >= n {
					break
				}
				out[ci] = ci * ci
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 3; w++ {
		<-done
	}
	return out
}

// lastWins documents an accepted last-writer-wins race on an advisory
// gauge.
func lastWins(xs []float64) float64 {
	seen := 0.0
	done := make(chan struct{})
	for _, x := range xs {
		go func(x float64) {
			//replint:ignore shardwrite -- fixture: last-writer-wins is acceptable for this advisory gauge
			seen = x // wantsuppressed shardwrite
			done <- struct{}{}
		}(x)
	}
	for range xs {
		<-done
	}
	return seen
}

// expiredAcks is the quorum-write fan-out shape with a shared write on
// the branch taken only when the context has already expired. A race
// test that never expires the context never runs the write, so the
// race detector cannot report it; this rule reports it at every
// build.
func expiredAcks(ctxErr func() error, owners []string) int {
	acks := make(chan error, len(owners))
	expired := 0
	for range owners {
		go func() {
			if err := ctxErr(); err != nil {
				expired++ // want shardwrite
				acks <- err
				return
			}
			acks <- nil
		}()
	}
	for range owners {
		<-acks
	}
	return expired
}

// watcher is the one-goroutine-per-call shape of a background watcher:
// each call launches a single literal, but calls overlap, so a write
// through the captured receiver races with the other calls' writes.
type watcher struct {
	wg         sync.WaitGroup
	lastFailed string
}

func (w *watcher) watch(id string, ok func() bool) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		if !ok() {
			w.lastFailed = id // want shardwrite
		}
	}()
}
