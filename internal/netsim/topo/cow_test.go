package topo

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
)

// TestFrozenCloneSharesCore pins the copy-on-write contract: a clone of a
// frozen topology shares every structure until its first mutation, and the
// mutation promotes only the clone — the frozen original and sibling clones
// keep the pre-mutation view.
func TestFrozenCloneSharesCore(t *testing.T) {
	orig := tinyTopo(t)
	orig.Freeze()
	if !orig.frozen {
		t.Fatal("Freeze did not stick")
	}

	a := orig.Clone()
	b := orig.Clone()
	// Unmutated clones alias the frozen overlay outright.
	if &a.links[0] != &orig.links[0] || a.links[0] != orig.links[0] {
		t.Fatal("unmutated clone copied the link slice")
	}
	if len(a.ases) != len(orig.ases) || a.ases[100] != orig.ases[100] {
		t.Fatal("clone does not share the AS core")
	}

	// Mutate clone a through both supported mutators.
	linkID := orig.links[0].ID
	a.SetLinkUp(linkID, false)
	if _, err := a.JoinIXP("NAPAfrica-JNB", 100); err != nil {
		t.Fatal(err)
	}

	// a sees its own writes.
	if a.Link(linkID).Up {
		t.Fatal("clone a lost its own link-down")
	}
	if _, member := a.ixpMemberIdx["NAPAfrica-JNB"][100]; !member {
		t.Fatal("clone a lost its own IXP join")
	}
	// The frozen original and sibling b are pristine.
	for name, tp := range map[string]*Topology{"original": orig, "sibling": b} {
		if !tp.Link(linkID).Up {
			t.Fatalf("%s saw the clone's link-down", name)
		}
		if _, member := tp.ixpMemberIdx["NAPAfrica-JNB"][100]; member {
			t.Fatalf("%s saw the clone's IXP join", name)
		}
		if len(tp.links) != len(a.links)-1 {
			t.Fatalf("%s link count drifted: %d vs clone's %d", name, len(tp.links), len(a.links))
		}
	}
	// The immutable core stays shared even after promotion.
	if len(a.pops) != len(orig.pops) || &a.pops[0] != &orig.pops[0] {
		t.Fatal("promotion copied the immutable PoP core")
	}
}

// TestMutatingFrozenTopologyPanics is the debug-assertion story: writing to
// a frozen original is a bug, loudly.
func TestMutatingFrozenTopologyPanics(t *testing.T) {
	tp := tinyTopo(t)
	tp.Freeze()
	assertPanics := func(op string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s on frozen topology did not panic", op)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "frozen") {
				t.Fatalf("%s panic = %v, want frozen-topology message", op, r)
			}
		}()
		f()
	}
	assertPanics("SetLinkUp", func() { tp.SetLinkUp(0, false) })
	assertPanics("JoinIXP", func() { _, _ = tp.JoinIXP("NAPAfrica-JNB", 100) })
}

// TestMutableCloneStaysDeep pins the pre-freeze behaviour: clones of a
// mutable topology are eager deep copies, so mutating the ORIGINAL after
// cloning cannot leak into the clone (sharing would not be safe while the
// original can still change).
func TestMutableCloneStaysDeep(t *testing.T) {
	orig := tinyTopo(t)
	c := orig.Clone()
	linkID := orig.links[0].ID
	orig.SetLinkUp(linkID, false)
	if _, err := orig.JoinIXP("NAPAfrica-JNB", 100); err != nil {
		t.Fatal(err)
	}
	if !c.Link(linkID).Up {
		t.Fatal("original's link-down leaked into a deep clone")
	}
	if _, member := c.ixpMemberIdx["NAPAfrica-JNB"][100]; member {
		t.Fatal("original's IXP join leaked into a deep clone")
	}
}

// TestFrozenCloneAllocations asserts the pointer-cheap property the
// serving mode rides on: an unmutated clone of a frozen world is O(1)
// allocations, not O(topology).
func TestFrozenCloneAllocations(t *testing.T) {
	tp := tinyTopo(t)
	tp.Freeze()
	var sink *Topology
	allocs := testing.AllocsPerRun(100, func() { sink = tp.Clone() })
	_ = sink
	if allocs > 2 {
		t.Fatalf("frozen Clone allocates %v objects per run, want <= 2 (one struct)", allocs)
	}
}

// cloneDeepReference is the eager deep copy Clone made of a mutable
// receiver before it had one body: the immutable core shared, the overlay
// (links, adjacency, IXPs and their member indexes) copied field by field.
// TestCloneMatchesDeepReference holds Clone to it.
func cloneDeepReference(t *Topology) *Topology {
	out := &Topology{
		Registry:     t.Registry,
		ases:         t.ases,
		asOrder:      t.asOrder,
		pops:         t.pops,
		popIndex:     t.popIndex,
		addrs:        t.addrs,
		links:        make([]*Link, len(t.links)),
		adj:          make(map[PoPID][]LinkID, len(t.adj)),
		ixps:         make(map[string]*IXP, len(t.ixps)),
		ixpMemberIdx: make(map[string]map[ASN]int, len(t.ixpMemberIdx)),
	}
	for i, l := range t.links {
		c := *l
		out.links[i] = &c
	}
	for p, ids := range t.adj {
		out.adj[p] = append([]LinkID(nil), ids...)
	}
	for name, x := range t.ixps {
		c := *x
		c.Members = append([]ASN(nil), x.Members...)
		out.ixps[name] = &c
	}
	for name, m := range t.ixpMemberIdx {
		cm := make(map[ASN]int, len(m))
		for asn, i := range m {
			cm[asn] = i
		}
		out.ixpMemberIdx[name] = cm
	}
	return out
}

// mutateRandomly applies n random overlay mutations — link flaps and IXP
// joins, drawn from r — to every topology in tps alike, and reports whether
// each JoinIXP failed or succeeded the same way on all of them.
func mutateRandomly(r *mathx.RNG, n int, tps ...*Topology) bool {
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.5) {
			id := LinkID(r.Intn(len(tps[0].links)))
			up := r.Bernoulli(0.5)
			for _, tp := range tps {
				tp.SetLinkUp(id, up)
			}
			continue
		}
		asn := tps[0].asOrder[r.Intn(len(tps[0].asOrder))]
		_, want := tps[0].JoinIXP(GenIXPName, asn)
		for _, tp := range tps[1:] {
			if _, err := tp.JoinIXP(GenIXPName, asn); (err == nil) != (want == nil) {
				return false
			}
		}
	}
	return true
}

// TestCloneMatchesDeepReference holds Clone's one body to the eager deep
// copy it replaced, over small generated worlds in random overlay states,
// frozen and unfrozen: the clone exports the same as the reference before
// and after the same mutations, the original never sees a mutation made on
// the clone, and the clone never sees one made on the original.
func TestCloneMatchesDeepReference(t *testing.T) {
	f := func(seed uint64, freeze bool) bool {
		r := mathx.NewRNG(seed)
		cfg := GenConfig{Tier1: 1 + r.Intn(2), Tier2: 2 + r.Intn(2), Access: 3 + r.Intn(4), Content: 1 + r.Intn(2),
			Cities: 6, MultihomeProb: 0.5, PeerProb: 0.3, IXP: true, Treated: 2}
		orig, err := Generate(r, cfg, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		mutateRandomly(r, r.Intn(6), orig)
		if freeze {
			orig.Freeze()
		}
		c, ref := orig.Clone(), cloneDeepReference(orig)
		if c.Epoch() != 0 || !reflect.DeepEqual(c.Export(), ref.Export()) {
			t.Log("fresh clone differs from the deep reference")
			return false
		}
		if !freeze {
			cloneBefore := c.Export()
			mutateRandomly(r, 1+r.Intn(6), orig)
			if !reflect.DeepEqual(c.Export(), cloneBefore) {
				t.Log("the clone saw a mutation of the original")
				return false
			}
		}
		origBefore := orig.Export()
		if !mutateRandomly(r, 1+r.Intn(6), c, ref) {
			t.Log("JoinIXP outcome differs between clone and reference")
			return false
		}
		if !reflect.DeepEqual(c.Export(), ref.Export()) {
			t.Log("mutated clone differs from the mutated deep reference")
			return false
		}
		if !reflect.DeepEqual(orig.Export(), origBefore) {
			t.Log("the original saw a mutation of the clone")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
