package engine

import (
	"context"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// snapshotPolicy deep-copies a policy without normalizing it (empty inner
// maps and empty poison lists survive), so reflect.DeepEqual against the
// live policy detects any edit at all.
func snapshotPolicy(p *bgp.Policy) *bgp.Policy {
	out := &bgp.Policy{
		LocalPref: make(map[topo.ASN]map[topo.ASN]int, len(p.LocalPref)),
		Poison:    make(map[topo.ASN][]topo.ASN, len(p.Poison)),
		DenyLink:  maps.Clone(p.DenyLink),
	}
	for a, m := range p.LocalPref {
		out.LocalPref[a] = maps.Clone(m)
	}
	for d, list := range p.Poison {
		out.Poison[d] = slices.Clone(list)
	}
	return out
}

// multihomedWorld generates a topology with a multihomed access AS and
// returns it with that AS's sorted providers and a content AS to measure.
func multihomedWorld(t *testing.T) (tp *topo.Topology, asn topo.ASN, providers []topo.ASN, content topo.ASN) {
	t.Helper()
	for seed := uint64(1); seed < 50; seed++ {
		tp, err := topo.Generate(mathx.NewRNG(seed), topo.DefaultGenConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if asn, providers, content := multihomed(t, tp); asn != 0 {
			return tp, asn, providers, content
		}
	}
	t.Fatal("no generated world with a multihomed access AS and a content AS")
	return
}

// multihomed returns tp's first access AS with at least two providers, its
// sorted providers and tp's first content AS, or asn 0 if tp lacks either.
func multihomed(t *testing.T, tp *topo.Topology) (asn topo.ASN, providers []topo.ASN, content topo.ASN) {
	t.Helper()
	rel, err := tp.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range tp.ASes() {
		switch {
		case as.Type == topo.Content && content == 0:
			content = as.ASN
		case as.Type == topo.Access && asn == 0:
			var ps []topo.ASN
			for n, k := range rel.Rel[as.ASN] {
				if k == topo.RelCustomer {
					ps = append(ps, n)
				}
			}
			if len(ps) >= 2 {
				sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
				asn, providers = as.ASN, ps
			}
		}
	}
	if content == 0 {
		return 0, nil, 0
	}
	return asn, providers, content
}

// TestPerfToASWithMatchesForcedRecompute is the what-if contract: on a
// generated world whose adaptive egress controller is moving the factual
// policy, pinning a multihomed AS to each provider every hour through
// PerfToASWith must answer exactly what the edit-rekey-restore sequence on
// the live policy answers (its factual RIB is a memo hit or a full
// compute, held to a fresh compute by TestFactualMemoMatchesMissPath) —
// and must leave the factual policy, RIB and dirty flag alone, which the
// unchanged RIB pointer proves.
func TestPerfToASWithMatchesForcedRecompute(t *testing.T) {
	const hours = 240
	tp, asn, providers, content := multihomedWorld(t)
	e := New(tp, 11, Config{AdaptiveEgress: true})
	rel, err := tp.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	// Recurring flash crowds on every provider link keep the controller
	// shifting and releasing, so the policies being cloned carry its
	// overrides.
	for i, p := range providers {
		for h := 10.0 + 25*float64(i); h < hours; h += 60 {
			for _, id := range rel.Links[asn][p] {
				e.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: id, StartHour: h, Hours: 20, Magnitude: 0.6})
			}
		}
	}
	src := tp.PoPsOf(asn)[0]
	pin := func(p topo.ASN) func(*bgp.Policy) {
		return func(pol *bgp.Policy) {
			for _, q := range providers {
				if q != p {
					pol.SetLocalPref(asn, q, 10)
				}
			}
			pol.SetLocalPref(asn, p, bgp.PrefProvider)
		}
	}
	pathsDiffered := false
	for e.Hour() < hours {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, p := range providers {
			rib4, err := e.RIB()
			if err != nil {
				t.Fatal(err)
			}
			snap := snapshotPolicy(e.Policy)

			got, err := e.PerfToASWith(src, content, pin(p))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e.Policy, snap) {
				t.Fatalf("hour %v: PerfToASWith edited the factual policy", e.Hour())
			}
			if r, _ := e.RIB(); r != rib4 {
				t.Fatalf("hour %v: PerfToASWith triggered a v4 recompute", e.Hour())
			}

			// The reference: edit the live policy, re-key the factual RIB,
			// measure, restore the snapshot.
			pin(p)(e.Policy)
			e.MarkDirty()
			want, err := e.PerfToAS(src, content)
			if err != nil {
				t.Fatal(err)
			}
			e.Policy = snap
			e.MarkDirty()

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("hour %v, pinned to AS%d: what-if %+v, recompute %+v", e.Hour(), p, got, want)
			}
			paths = append(paths, fmt.Sprint(got.Path.ASPath))
		}
		if paths[0] != paths[1] {
			pathsDiffered = true
		}
	}
	if !pathsDiffered {
		t.Fatal("pinning different providers never changed the path; the test is vacuous")
	}
	if log := strings.Join(e.eventLg, ";"); !strings.Contains(log, fmt.Sprintf("egress-shift AS%d", asn)) {
		t.Fatalf("adaptive egress never moved AS%d; the cloned policies carried no overrides: %s", asn, log)
	}
}

// TestWhatIfMemoMatchesMissPath holds PerfToASWith's memo to the fixed
// point it caches. On generated worlds, an adaptive-egress engine takes a
// random interleaving of steps (its controller rewrites the factual
// local-prefs), link flaps through SetLinkUp (the topology's epoch moves)
// and factual DenyLink maintenance (the policy moves, the epoch does not),
// with a what-if query after each. The queries draw from a small set of
// edits — pin the multihomed AS to each provider, random local-pref
// overrides, no edit — so questions repeat and hit the memo. Every answer
// must equal what a fresh bgp.ComputeDests under the same edited policy
// answers on the miss path: the same AS path, and RTT, loss, throughput
// and peak utilization equal bit for bit.
func TestWhatIfMemoMatchesMissPath(t *testing.T) {
	var worlds, flaps, maint, errs int
	var queries, computes float64
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		tp, err := topo.Generate(r, topo.DefaultGenConfig(), nil)
		if err != nil {
			t.Log(err)
			return false
		}
		asn, providers, content := multihomed(t, tp)
		if asn == 0 {
			return true
		}
		worlds++
		rec := obs.NewRecorder()
		e := New(tp, seed, Config{AdaptiveEgress: true}).Bind(obs.With(context.Background(), rec))
		rel, err := tp.Relationships()
		if err != nil {
			t.Fatal(err)
		}
		var provLinks []topo.LinkID
		for _, p := range providers {
			provLinks = append(provLinks, rel.Links[asn][p]...)
		}
		// Flash crowds on the provider links keep the controller moving.
		for i, id := range provLinks {
			e.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: id, StartHour: 5 + 15*float64(i), Hours: 20, Magnitude: 0.6})
		}
		links := tp.Export().Links
		pickLink := func() topo.LinkID {
			if r.Intn(2) == 0 {
				return provLinks[r.Intn(len(provLinks))]
			}
			return links[r.Intn(len(links))].ID
		}
		ases := tp.ASes()
		edits := []func(*bgp.Policy){func(*bgp.Policy) {}}
		for _, p := range providers {
			edits = append(edits, func(pol *bgp.Policy) {
				for _, q := range providers {
					if q != p {
						pol.SetLocalPref(asn, q, 10)
					}
				}
				pol.SetLocalPref(asn, p, bgp.PrefProvider)
			})
		}
		for len(edits) < len(providers)+4 {
			a := ases[r.Intn(len(ases))].ASN
			var ns []topo.ASN
			for n := range rel.Rel[a] {
				ns = append(ns, n)
			}
			if len(ns) == 0 {
				continue
			}
			slices.Sort(ns)
			n, pref := ns[r.Intn(len(ns))], []int{10, 150, 250}[r.Intn(3)]
			edits = append(edits, func(pol *bgp.Policy) { pol.SetLocalPref(a, n, pref) })
		}
		srcs := []topo.PoPID{tp.PoPsOf(asn)[0], tp.Export().PoPs[r.Intn(len(tp.Export().PoPs))].ID}

		var down, denied []topo.LinkID
		for op := 0; op < 150; op++ {
			switch k := r.Intn(10); {
			case k < 4:
				if err := e.Step(); err != nil {
					t.Log(err)
					return false
				}
			case k == 4:
				// Fail a link, or restore the oldest failure once two are
				// down, so the world stays mostly connected.
				if len(down) == 2 {
					tp.SetLinkUp(down[0], true)
					down = down[1:]
				} else if id := pickLink(); tp.Link(id).Up {
					tp.SetLinkUp(id, false)
					down = append(down, id)
				}
				e.MarkDirty()
				flaps++
			case k == 5:
				// The same for maintenance windows on the factual policy.
				if len(denied) == 2 {
					delete(e.Policy.DenyLink, denied[0])
					denied = denied[1:]
				} else if id := pickLink(); !e.Policy.DenyLink[id] {
					e.Policy.DenyLink[id] = true
					denied = append(denied, id)
				}
				e.MarkDirty()
				maint++
			}
			src, edit := srcs[r.Intn(len(srcs))], edits[r.Intn(len(edits))]
			got, gotErr := e.PerfToASWith(src, content, edit)

			pol := e.Policy.Clone()
			edit(pol)
			rib, err := bgp.ComputeDests(context.Background(), parallel.Pool{}, tp, pol, []topo.ASN{content})
			if err != nil {
				t.Log(err)
				return false
			}
			want, wantErr := e.perfToASOn(rib, src, content)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Logf("seed %d op %d: what-if error %v, miss path %v", seed, op, gotErr, wantErr)
				return false
			}
			if gotErr != nil {
				errs++
				continue
			}
			if !slices.Equal(got.Path.ASPath, want.Path.ASPath) ||
				math.Float64bits(got.RTTms) != math.Float64bits(want.RTTms) ||
				math.Float64bits(got.LossRate) != math.Float64bits(want.LossRate) ||
				math.Float64bits(got.ThroughputMbps) != math.Float64bits(want.ThroughputMbps) ||
				math.Float64bits(got.MaxUtil) != math.Float64bits(want.MaxUtil) {
				t.Logf("seed %d op %d: what-if %v %+v, miss path %v %+v", seed, op, got.Path.ASPath, got, want.Path.ASPath, want)
				return false
			}
		}
		m := rec.Metrics()[""]
		queries += m["whatif.queries"]
		computes += m["whatif.computes"]
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d worlds: %.0f what-if queries, %.0f computes, %d flaps, %d maintenance toggles, %d error answers",
		worlds, queries, computes, flaps, maint, errs)
	// The property is only as strong as the paths it exercised.
	if worlds < 5 || computes == 0 || computes >= queries || flaps == 0 || maint == 0 {
		t.Fatalf("weak run: %d worlds, %.0f queries, %.0f computes, %d flaps, %d maintenance toggles",
			worlds, queries, computes, flaps, maint)
	}
}

// perfFamily is what a family speed test measures: performance from src to
// dst over the family's routes toward dst's AS.
func perfFamily(e *Engine, src, dst topo.PoPID, f Family) (PathPerf, error) {
	rib, err := e.RoutesToward(e.Topo.PoP(dst).AS, f)
	if err != nil {
		return PathPerf{}, err
	}
	return e.PerfOn(rib, src, dst)
}

// TestV6RoutesMatchFullRecompute holds the v6 plane — a standing what-if
// under the v6 policy — to a full recompute. On generated worlds with an
// exchange, an adaptive-egress engine takes a random interleaving of steps
// (its controller edits the v4 policy), link flaps through SetLinkUp, IXP
// joins, v6 pins and releases of the multihomed AS, and factual v4
// local-pref edits, with a v6 query after each. Every answer must equal what
// a fresh bgp.Compute over every destination under a clone of the v6 policy
// answers: the same AS path, and RTT, loss and throughput equal bit for bit.
// A v4 edit must add no whatif.computes and change no v6 answer.
func TestV6RoutesMatchFullRecompute(t *testing.T) {
	var worlds, flaps, joins, pins, v4Edits, errs int
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		cfg := topo.DefaultGenConfig()
		cfg.IXP = true
		tp, err := topo.Generate(r, cfg, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		asn, providers, content := multihomed(t, tp)
		if asn == 0 {
			return true
		}
		worlds++
		rec := obs.NewRecorder()
		e := New(tp, seed, Config{AdaptiveEgress: true}).Bind(obs.With(context.Background(), rec))
		computes := func() float64 { return rec.Metrics()[""]["whatif.computes"] }
		pol6, err := e.PolicyFamily(V6)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := tp.Relationships()
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range providers {
			for _, id := range rel.Links[asn][p] {
				e.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: id, StartHour: 5 + 15*float64(i), Hours: 20, Magnitude: 0.6})
			}
		}
		ases := tp.ASes()
		ixp := tp.IXPs()[0]
		// joiner returns the first AS that can join the exchange: it has a
		// PoP there and no link yet, up or down, to any member, which the
		// new peerings would contradict.
		joiner := func() topo.ASN {
			ixp, err := tp.IXP(ixp.Name)
			if err != nil {
				t.Fatal(err)
			}
			linked := make(map[topo.ASN]bool)
			for _, l := range tp.Export().Links {
				a, b := tp.PoP(l.A).AS, tp.PoP(l.B).AS
				if slices.Contains(ixp.Members, a) {
					linked[b] = true
				}
				if slices.Contains(ixp.Members, b) {
					linked[a] = true
				}
			}
			for _, as := range ases {
				if _, err := tp.FindPoP(as.ASN, ixp.City); err == nil && !linked[as.ASN] {
					return as.ASN
				}
			}
			return 0
		}
		pops := tp.Export().PoPs
		srcs := []topo.PoPID{tp.PoPsOf(asn)[0], pops[r.Intn(len(pops))].ID}
		dsts := []topo.ASN{content, ases[r.Intn(len(ases))].ASN}
		ask := func(src topo.PoPID, dst topo.ASN) (PathPerf, error) {
			rib, err := e.RoutesToward(dst, V6)
			if err != nil {
				return PathPerf{}, err
			}
			d, err := rib.NearestPoP(src, dst)
			if err != nil {
				return PathPerf{}, err
			}
			return e.PerfOn(rib, src, d)
		}

		var down []topo.LinkID
		for op := 0; op < 120; op++ {
			src, dst := srcs[r.Intn(len(srcs))], dsts[r.Intn(len(dsts))]
			switch k := r.Intn(10); {
			case k < 3:
				if err := e.Step(); err != nil {
					t.Log(err)
					return false
				}
			case k == 3:
				// Fail a link, or restore the oldest failure once two are
				// down, so the world stays mostly connected.
				if len(down) == 2 {
					tp.SetLinkUp(down[0], true)
					down = down[1:]
				} else if id := topo.LinkID(r.Intn(tp.NumLinks())); tp.Link(id).Up {
					tp.SetLinkUp(id, false)
					down = append(down, id)
				}
				e.MarkDirty()
				flaps++
			case k == 4:
				if a := joiner(); a != 0 {
					if _, err := tp.JoinIXP(ixp.Name, a); err != nil {
						t.Fatal(err)
					}
					e.MarkDirty()
					joins++
				}
			case k == 5:
				// Pin the multihomed AS's v6 egress to one provider, or
				// release every pin.
				if r.Intn(3) == 0 {
					for _, q := range providers {
						pol6.ClearLocalPref(asn, q)
					}
				} else {
					p := providers[r.Intn(len(providers))]
					for _, q := range providers {
						if q != p {
							pol6.SetLocalPref(asn, q, 10)
						}
					}
					pol6.SetLocalPref(asn, p, bgp.PrefProvider)
				}
				pins++
			case k == 6:
				before, beforeErr := ask(src, dst)
				n := computes()
				a := ases[r.Intn(len(ases))].ASN
				var ns []topo.ASN
				for q := range rel.Rel[a] {
					ns = append(ns, q)
				}
				slices.Sort(ns)
				e.Policy.SetLocalPref(a, ns[r.Intn(len(ns))], []int{10, 150, 250}[r.Intn(3)])
				e.MarkDirty()
				if _, err := e.RIB(); err != nil {
					t.Log(err)
					return false
				}
				after, afterErr := ask(src, dst)
				if computes() != n || !reflect.DeepEqual(after, before) || fmt.Sprint(afterErr) != fmt.Sprint(beforeErr) {
					t.Logf("seed %d op %d: a v4 edit moved the v6 plane: %.0f -> %.0f computes, %+v -> %+v", seed, op, n, computes(), before, after)
					return false
				}
				v4Edits++
			}
			got, gotErr := ask(src, dst)

			rib, err := bgp.Compute(context.Background(), parallel.Pool{}, tp, pol6.Clone())
			if err != nil {
				t.Log(err)
				return false
			}
			want, wantErr := e.perfToASOn(rib, src, dst)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Logf("seed %d op %d: v6 error %v, full recompute %v", seed, op, gotErr, wantErr)
				return false
			}
			if gotErr != nil {
				errs++
				continue
			}
			if !slices.Equal(got.Path.ASPath, want.Path.ASPath) ||
				math.Float64bits(got.RTTms) != math.Float64bits(want.RTTms) ||
				math.Float64bits(got.LossRate) != math.Float64bits(want.LossRate) ||
				math.Float64bits(got.ThroughputMbps) != math.Float64bits(want.ThroughputMbps) {
				t.Logf("seed %d op %d: v6 %v %+v, full recompute %v %+v", seed, op, got.Path.ASPath, got, want.Path.ASPath, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d worlds: %d flaps, %d IXP joins, %d v6 pins/releases, %d v4 edits, %d error answers",
		worlds, flaps, joins, pins, v4Edits, errs)
	// The property is only as strong as the paths it exercised.
	if worlds < 5 || flaps == 0 || joins == 0 || pins == 0 || v4Edits == 0 {
		t.Fatalf("weak run: %d worlds, %d flaps, %d IXP joins, %d v6 pins/releases, %d v4 edits",
			worlds, flaps, joins, pins, v4Edits)
	}
}
