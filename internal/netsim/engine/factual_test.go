package engine

import (
	"context"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// TestFactualMemoMatchesMissPath holds the factual RIB, served from the
// route memo per ⟨topology epoch, policy content⟩, to a fresh full compute.
// On generated worlds with an exchange, engines — half of them seeded with
// an InitialRIB — take a random interleaving of steps under adaptive
// egress with flash crowds, SetLinkUp flaps, EvJoinIXP and EvMaintenance
// events, and direct v4 local-pref writes and clears followed by
// MarkDirty. After every op, e.RIB() must equal bgp.Compute over the
// engine's topology and policy: the same AS path for every AS pair, and
// PerfToAS answers equal bit for bit. A state that recurs within an epoch
// must hand back the very RIB it converged before, and no RIB converged
// under an earlier epoch may come back after the epoch moves.
func TestFactualMemoMatchesMissPath(t *testing.T) {
	var worlds, seeded, flaps, joins, maint, prefs, recurs, errs int
	var queries, computes float64
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
		var ecfg Config
		ecfg.AdaptiveEgress = true
		if r.Intn(2) == 0 {
			if ecfg.InitialRIB, err = bgp.Compute(context.Background(), parallel.Pool{}, tp, nil); err != nil {
				t.Fatal(err)
			}
			seeded++
		}
		rec := obs.NewRecorder()
		e := New(tp, seed, ecfg).Bind(obs.With(context.Background(), rec))
		rel, err := tp.Relationships()
		if err != nil {
			t.Fatal(err)
		}
		// Flash crowds on the provider links keep the controller moving.
		for i, p := range providers {
			for _, id := range rel.Links[asn][p] {
				e.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: id, StartHour: 3 + 10*float64(i), Hours: 12, Magnitude: 0.6})
			}
		}
		ases := tp.ASes()
		ixp := tp.IXPs()[0]
		// A small slate of local-pref writes, so written states recur.
		type pref struct {
			a, n topo.ASN
			v    int
		}
		var slate []pref
		for len(slate) < 3 {
			a := ases[r.Intn(len(ases))].ASN
			var ns []topo.ASN
			for n := range rel.Rel[a] {
				ns = append(ns, n)
			}
			if len(ns) == 0 {
				continue
			}
			slices.Sort(ns)
			slate = append(slate, pref{a, ns[r.Intn(len(ns))], []int{10, 150, 250}[r.Intn(3)]})
		}
		pops := tp.Export().PoPs
		srcs := []topo.PoPID{tp.PoPsOf(asn)[0], pops[r.Intn(len(pops))].ID}
		dsts := []topo.ASN{content, ases[r.Intn(len(ases))].ASN}

		type state struct {
			epoch  uint64
			policy string
		}
		seen := make(map[state]*bgp.RIB) // this epoch's states
		stale := make(map[*bgp.RIB]bool) // RIBs of earlier epochs
		factualComputes := func() float64 { return rec.Metrics()[""]["factual.computes"] }
		// epochComputes is the factual.computes count when the current
		// epoch began, or an earlier one: the memo holds at most one seed
		// entry plus the full tables converged since.
		epoch, epochComputes := tp.Epoch(), 0.0
		var down []topo.LinkID
		for op := 0; op < 150; op++ {
			before := factualComputes()
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
				} else if id := topo.LinkID(r.Intn(tp.NumLinks())); tp.Link(id).Up {
					tp.SetLinkUp(id, false)
					down = append(down, id)
				}
				e.MarkDirty()
				flaps++
			case k == 5:
				// Any AS at the exchange may join, transit customers and
				// providers of members included.
				x, err := tp.IXP(ixp.Name)
				if err != nil {
					t.Fatal(err)
				}
				var joinable []topo.ASN
				for _, as := range ases {
					if _, err := tp.FindPoP(as.ASN, x.City); err == nil && !slices.Contains(x.Members, as.ASN) {
						joinable = append(joinable, as.ASN)
					}
				}
				if len(joinable) > 0 {
					e.Schedule(EvJoinIXP(e.Hour()+1, ixp.Name, joinable[r.Intn(len(joinable))], 0.02))
					joins++
				}
				if err := e.Step(); err != nil {
					t.Logf("seed %d op %d: %v", seed, op, err)
					return false
				}
			case k == 6:
				start, end := EvMaintenance(e.Hour()+1, float64(1+r.Intn(4)), topo.LinkID(r.Intn(tp.NumLinks())))
				e.Schedule(start)
				e.Schedule(end)
				if err := e.Step(); err != nil {
					t.Log(err)
					return false
				}
				maint++
			case k < 9:
				p := slate[r.Intn(len(slate))]
				if r.Intn(2) == 0 {
					e.Policy.SetLocalPref(p.a, p.n, p.v)
				} else {
					e.Policy.ClearLocalPref(p.a, p.n)
				}
				e.MarkDirty()
				prefs++
			default:
				// A re-key with nothing changed.
				e.MarkDirty()
			}
			got, err := e.RIB()
			if err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
			if now := tp.Epoch(); now != epoch {
				for _, rib := range seen {
					stale[rib] = true
				}
				clear(seen)
				epoch, epochComputes = now, before
			}
			if stale[got] {
				t.Logf("seed %d op %d: the RIB of an earlier epoch came back at epoch %d", seed, op, epoch)
				return false
			}
			// Only factual tables fill the memo here (the test asks no
			// what-if), so while this epoch's computes stay below the
			// memo's bound no entry of the epoch has been evicted.
			s := state{epoch, e.Policy.Key()}
			if prev, ok := seen[s]; ok && factualComputes()-epochComputes+1 < maxWhatIfRIBs {
				if prev != got {
					t.Logf("seed %d op %d: a recurring state converged a new RIB", seed, op)
					return false
				}
				recurs++
			}
			seen[s] = got

			want, err := bgp.Compute(context.Background(), parallel.Pool{}, tp, e.Policy)
			if err != nil {
				t.Log(err)
				return false
			}
			for _, a := range ases {
				for _, d := range ases {
					g, w := got.Lookup(a.ASN, d.ASN), want.Lookup(a.ASN, d.ASN)
					if (g == nil) != (w == nil) || (g != nil && !slices.Equal(g.Path, w.Path)) {
						t.Logf("seed %d op %d: AS%d->AS%d memo %v, fresh %v", seed, op, a.ASN, d.ASN, g, w)
						return false
					}
				}
			}
			for _, src := range srcs {
				for _, dst := range dsts {
					gp, gErr := e.PerfToAS(src, dst)
					wp, wErr := e.perfToASOn(want, src, dst)
					if (gErr == nil) != (wErr == nil) || (gErr != nil && gErr.Error() != wErr.Error()) {
						t.Logf("seed %d op %d: memo error %v, fresh %v", seed, op, gErr, wErr)
						return false
					}
					if gErr != nil {
						errs++
						continue
					}
					if !slices.Equal(gp.Path.ASPath, wp.Path.ASPath) ||
						math.Float64bits(gp.RTTms) != math.Float64bits(wp.RTTms) ||
						math.Float64bits(gp.LossRate) != math.Float64bits(wp.LossRate) ||
						math.Float64bits(gp.ThroughputMbps) != math.Float64bits(wp.ThroughputMbps) ||
						math.Float64bits(gp.MaxUtil) != math.Float64bits(wp.MaxUtil) {
						t.Logf("seed %d op %d: memo %v %+v, fresh %v %+v", seed, op, gp.Path.ASPath, *gp, wp.Path.ASPath, *wp)
						return false
					}
				}
			}
		}
		m := rec.Metrics()[""]
		queries += m["factual.queries"]
		computes += m["factual.computes"]
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d worlds (%d seeded): %.0f factual queries, %.0f computes, %d recurring states, %d flaps, %d joins, %d maintenance windows, %d local-pref edits, %d error answers",
		worlds, seeded, queries, computes, recurs, flaps, joins, maint, prefs, errs)
	// The property is only as strong as the paths it exercised.
	if worlds < 10 || seeded == 0 || seeded == worlds || computes == 0 || computes >= queries || recurs == 0 ||
		flaps == 0 || joins == 0 || maint == 0 || prefs == 0 {
		t.Fatalf("weak run: %d worlds (%d seeded), %.0f queries, %.0f computes, %d recurring states, %d flaps, %d joins, %d maintenance windows, %d local-pref edits",
			worlds, seeded, queries, computes, recurs, flaps, joins, maint, prefs)
	}
}
