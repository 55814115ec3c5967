package scenario

import "testing"

// TestFrozenWorldForkAllocations asserts what every world cache hit pays: a
// fork of a frozen world shares the topology copy-on-write and copies only
// the casting slices, one allocation each, so its allocation count does
// not grow with the world. A world four times larger must fork in exactly
// as many allocations.
func TestFrozenWorldForkAllocations(t *testing.T) {
	build := func(access int) *World {
		t.Helper()
		sp := DefaultGenSpec()
		sp.Config.Access = access
		w, err := BuildGenerated(sp)
		if err != nil {
			t.Fatal(err)
		}
		w.Freeze()
		return w
	}
	small, big := build(10), build(40)
	if len(big.Donors) <= len(small.Donors) {
		t.Fatalf("donor pools %d vs %d: the large world is not larger", len(big.Donors), len(small.Donors))
	}
	var sink *World
	smallAllocs := testing.AllocsPerRun(50, func() { sink = small.Fork() })
	bigAllocs := testing.AllocsPerRun(50, func() { sink = big.Fork() })
	_ = sink
	if bigAllocs != smallAllocs {
		t.Fatalf("frozen World.Fork allocations scale with the world: %v at access=40 vs %v at access=10", bigAllocs, smallAllocs)
	}
	// The struct, the topology clone (at most 2), six casting slices, three
	// cast structs and the outage cast's two slices.
	if smallAllocs > 14 {
		t.Fatalf("frozen World.Fork allocates %v objects, want at most 14 (one per field)", smallAllocs)
	}
}
