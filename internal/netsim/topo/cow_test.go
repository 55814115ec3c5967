package topo

import (
	"strings"
	"testing"
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
