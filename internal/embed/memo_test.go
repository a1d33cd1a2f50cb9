package embed

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestCacheAdmission pins the Cache's two-touch admission: a first Put
// only records the fingerprint, a second admits it, a duplicate Put of
// a retained fingerprint keeps the first entry, and an admission at
// capacity evicts the oldest entry.
func TestCacheAdmission(t *testing.T) {
	fp := func(i uint64) Fingerprint { return Fingerprint{Hi: i, Lo: ^i} }
	c := NewCache(2)
	r := &Result{}
	c.Put(fp(1), r) // first sighting: doorkeeper only
	if _, ok := c.Get(fp(1)); ok {
		t.Fatal("doorkeeper-only Put admitted the entry")
	}
	c.Put(fp(1), r) // second sighting: admitted
	first, ok := c.Get(fp(1))
	if !ok {
		t.Fatal("admitted entry not retrievable")
	}
	c.Put(fp(1), r) // already retained: no-op
	if got, _ := c.Get(fp(1)); got != first || len(c.fifo) != 1 {
		t.Errorf("duplicate Put replaced or re-queued the entry (fifo %v)", c.fifo)
	}

	c.Put(fp(2), r)
	c.Put(fp(2), r)
	c.Put(fp(3), r)
	c.Put(fp(3), r) // evicts fp(1)
	if _, ok := c.Get(fp(1)); ok {
		t.Error("evicted entry still retrievable")
	}
	for _, k := range []uint64{2, 3} {
		if _, ok := c.Get(fp(k)); !ok {
			t.Errorf("entry %d not retrievable after eviction", k)
		}
	}
	if len(c.m) != 2 {
		t.Errorf("cache holds %d entries, capacity 2", len(c.m))
	}
}

// TestCacheFrozenEntry admits a memoized Result from every memo family
// and checks that the cache keeps a frozen copy: the same frontier and,
// for every point, the same extraction, Float64bits-equal, with no node
// sets or Problem behind it. The entry must still read the same after
// the memo's next solve has recycled the live Result's node sets, and
// an Extract the caller modifies must not change the entry.
func TestCacheFrozenEntry(t *testing.T) {
	fp := Fingerprint{Hi: 1, Lo: 2}
	for _, mc := range memoCases() {
		p := mc.prob()
		p.Memo = NewNodeMemo()
		live, err := p.Solve()
		if err != nil {
			t.Fatalf("%s: %v", mc.name, err)
		}
		want := make([]*Embedding, len(live.Frontier))
		for i := range live.Frontier {
			want[i] = live.Extract(live.Frontier[i])
		}
		c := NewCache(2)
		c.Put(fp, live)
		c.Put(fp, live)
		got, ok := c.Get(fp)
		if !ok {
			t.Fatalf("%s: second Put did not admit", mc.name)
		}
		if got == live || got.sols != nil || got.p != nil {
			t.Fatalf("%s: cache entry is not frozen (live %v, sols %d, problem %v)",
				mc.name, got == live, len(got.sols), got.p != nil)
		}
		check := func(when string) {
			t.Helper()
			if len(got.Frontier) != len(want) {
				t.Fatalf("%s %s: frozen frontier has %d points, live %d", mc.name, when, len(got.Frontier), len(want))
			}
			for i := range want {
				if !sameSig(&got.Frontier[i].Sig, &live.Frontier[i].Sig) || got.Frontier[i].Vertex != live.Frontier[i].Vertex {
					t.Fatalf("%s %s: frozen frontier[%d] = %+v, live %+v", mc.name, when, i, got.Frontier[i], live.Frontier[i])
				}
				if err := sameEmbedding(want[i], got.Extract(got.Frontier[i])); err != nil {
					t.Fatalf("%s %s: frozen extract[%d]: %v", mc.name, when, i, err)
				}
			}
		}
		check("after admission")
		scribble := got.Extract(got.Frontier[0])
		scribble.NodeVertex[0] = -7
		scribble.Routes[0][0] = -7
		other := *p
		other.T = cloneTree(p.T)
		for i := range other.T.Nodes {
			other.T.Nodes[i].Arr += 0.5
		}
		if _, err := other.Solve(); err != nil {
			t.Fatalf("%s: next solve: %v", mc.name, err)
		}
		check("after the memo's next solve")
	}
}

// sameEmbedding compares two embeddings bit for bit.
func sameEmbedding(want, got *Embedding) error {
	if math.Float64bits(want.WireCost) != math.Float64bits(got.WireCost) {
		return fmt.Errorf("wire cost %v, want %v", got.WireCost, want.WireCost)
	}
	for i := range want.NodeVertex {
		if got.NodeVertex[i] != want.NodeVertex[i] {
			return fmt.Errorf("node %d at %d, want %d", i, got.NodeVertex[i], want.NodeVertex[i])
		}
		if !slices.Equal(got.Routes[i], want.Routes[i]) {
			return fmt.Errorf("node %d route %v, want %v", i, got.Routes[i], want.Routes[i])
		}
	}
	return nil
}
