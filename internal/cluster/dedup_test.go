package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDedupClaimCoalesce(t *testing.T) {
	d := NewDedup()
	h := testHash(1)
	id, coalesced, err := d.Claim(h, func() (string, error) { return "j1", nil })
	if err != nil || coalesced || id != "j1" {
		t.Fatalf("first Claim = %q coalesced=%v err=%v", id, coalesced, err)
	}
	// Duplicate while in flight coalesces without invoking submit.
	id, coalesced, err = d.Claim(h, func() (string, error) {
		t.Fatal("submit invoked for coalesced claim")
		return "", nil
	})
	if err != nil || !coalesced || id != "j1" {
		t.Fatalf("second Claim = %q coalesced=%v err=%v", id, coalesced, err)
	}
	if got, ok := d.Lookup(h); !ok || got != "j1" {
		t.Fatalf("Lookup = %q ok=%v", got, ok)
	}
	d.Done(h)
	if _, ok := d.Lookup(h); ok {
		t.Fatal("Lookup found hash after Done")
	}
	// After Done a new claim executes again.
	id, coalesced, err = d.Claim(h, func() (string, error) { return "j2", nil })
	if err != nil || coalesced || id != "j2" {
		t.Fatalf("post-Done Claim = %q coalesced=%v err=%v", id, coalesced, err)
	}
	d.Done(h)
	snap := d.Snapshot()
	if snap.Executed != 2 || snap.Coalesced != 1 || snap.Inflight != 0 {
		t.Errorf("snapshot %+v, want 2 executed / 1 coalesced / 0 inflight", snap)
	}
}

func TestDedupSubmitErrorDoesNotRegister(t *testing.T) {
	d := NewDedup()
	h := testHash(2)
	boom := errors.New("queue full")
	if _, _, err := d.Claim(h, func() (string, error) { return "", boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the submit error", err)
	}
	if _, ok := d.Lookup(h); ok {
		t.Fatal("failed submit left an inflight entry")
	}
	// The next claim retries the submission.
	id, coalesced, err := d.Claim(h, func() (string, error) { return "j1", nil })
	if err != nil || coalesced || id != "j1" {
		t.Fatalf("retry Claim = %q coalesced=%v err=%v", id, coalesced, err)
	}
}

// TestDedupSingleflight races many duplicate claims: exactly one
// submit must run per hash per flight.
func TestDedupSingleflight(t *testing.T) {
	d := NewDedup()
	h := testHash(3)
	var submits atomic.Int64
	var wg sync.WaitGroup
	ids := make([]string, 32)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, _, err := d.Claim(h, func() (string, error) {
				return fmt.Sprintf("j%d", submits.Add(1)), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	if n := submits.Load(); n != 1 {
		t.Fatalf("%d submits ran, want exactly 1", n)
	}
	for i, id := range ids {
		if id != ids[0] {
			t.Fatalf("claim %d got %q, claim 0 got %q — divergent IDs for one hash", i, id, ids[0])
		}
	}
}
