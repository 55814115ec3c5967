package engine

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/topo"
)

// recountEgress is adaptEgress's provider bookkeeping as it ran before the
// plan existed: recounted over every AS pair on every step.
func recountEgress(t *topo.Topology, rib *bgp.RIB) []egressAS {
	var out []egressAS
	for _, as := range t.ASes() {
		a := as.ASN
		var providers []topo.ASN
		for n, k := range rib.Rel.Rel[a] {
			if k == topo.RelCustomer {
				providers = append(providers, n)
			}
		}
		if len(providers) < 2 {
			continue
		}
		sort.Slice(providers, func(i, j int) bool { return providers[i] < providers[j] })
		use := make(map[topo.ASN]int)
		for _, dst := range t.ASes() {
			if dst.ASN == a {
				continue
			}
			if r := rib.Lookup(a, dst.ASN); r != nil {
				for _, p := range providers {
					if r.NextHop() == p {
						use[p]++
					}
				}
			}
		}
		var active topo.ASN
		best := -1
		for _, p := range providers {
			if use[p] > best {
				best, active = use[p], p
			}
		}
		out = append(out, egressAS{asn: a, providers: providers, active: active, routes: best})
	}
	return out
}

// TestEgressPlanMatchesRecount: on generated worlds with adaptive egress,
// the plan adaptEgress used at every step of a 200-hour run was built from
// that step's RIB and equals the per-step recount over it. The runs must
// see routing change (several RIBs, egress shifts), or the plan would only
// ever have been built once.
func TestEgressPlanMatchesRecount(t *testing.T) {
	var ribs, shifts int
	f := func(seed uint64) bool {
		tp, err := topo.Generate(mathx.NewRNG(seed), topo.DefaultGenConfig(), nil)
		if err != nil {
			t.Log(err)
			return false
		}
		e := New(tp, seed, Config{AdaptiveEgress: true})
		var last *bgp.RIB
		for step := 0; step < 200; step++ {
			if err := e.Step(); err != nil {
				t.Log(err)
				return false
			}
			if e.egress == nil || e.egress.rib != e.rib {
				t.Logf("seed %d step %d: egress plan is not for the step's RIB", seed, step)
				return false
			}
			if want := recountEgress(tp, e.rib); !reflect.DeepEqual(e.egress.ases, want) {
				t.Logf("seed %d step %d: plan %+v, recount %+v", seed, step, e.egress.ases, want)
				return false
			}
			if e.rib != last {
				ribs++
				last = e.rib
			}
		}
		for _, ev := range e.eventLg {
			if strings.HasPrefix(ev, "egress-shift") {
				shifts++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d RIBs, %d egress shifts", ribs, shifts)
	if shifts == 0 || ribs <= 6 {
		t.Fatalf("weak run: %d RIBs over 6 runs, %d egress shifts", ribs, shifts)
	}
}
