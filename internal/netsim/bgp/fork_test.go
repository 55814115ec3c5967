package bgp

import (
	"context"
	"testing"

	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
)

// frozenRIB computes a converged RIB over the trombone world and freezes
// its topology, mimicking exactly what the artifact store holds.
func frozenRIB(t testing.TB) (*topo.Topology, *RIB) {
	t.Helper()
	tp := trombone(t)
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	tp.Freeze()
	return tp, rib
}

// TestFrozenForkSharesTables pins the fork contract: a fork rebinds onto
// the caller's topology and shares every per-destination table and the
// relationship map with the converged original.
func TestFrozenForkSharesTables(t *testing.T) {
	tp, rib := frozenRIB(t)

	view := tp.Clone()
	a := rib.Fork(view)
	if a.Topo != view {
		t.Fatal("fork did not rebind onto the caller's topology")
	}
	for dest := range rib.best {
		if !sameTable(a.best[dest], rib.best[dest]) {
			t.Fatalf("fork copied the table for dest AS%d", dest)
		}
	}
	if a.Rel != rib.Rel {
		t.Fatal("fork copied the relationship map")
	}
}

func sameTable(a, b map[topo.ASN]*Route) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestFrozenForkAllocations pins the cheap-fork property: forking a
// converged RIB allocates the RIB struct and policy, never route tables.
func TestFrozenForkAllocations(t *testing.T) {
	tp, rib := frozenRIB(t)
	forkWorld := tp.Clone()
	var sink *RIB
	allocs := testing.AllocsPerRun(100, func() { sink = rib.Fork(forkWorld) })
	_ = sink
	// RIB struct + policy clone (3 maps) + map buckets: well under one
	// allocation per route table (the trombone world has 4 dests
	// × 4 ASes of routes, each a map + Route + Path slice when deep-copied).
	if allocs > 12 {
		t.Fatalf("frozen Fork allocates %v objects per run, want O(outer map)", allocs)
	}
}

// TestSizeBytes sanity-checks the residency estimator: nonzero, and
// monotone in route count.
func TestSizeBytes(t *testing.T) {
	_, rib := frozenRIB(t)
	n := rib.SizeBytes()
	if n <= 0 {
		t.Fatalf("SizeBytes() = %d, want > 0", n)
	}
	routes := 0
	for _, m := range rib.best {
		routes += len(m)
	}
	if n < int64(routes)*64 {
		t.Fatalf("SizeBytes() = %d, below the per-route floor for %d routes", n, routes)
	}
}
