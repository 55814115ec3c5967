package bgp

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
)

// TestForwardMemoMatchesMissPath holds the forwarding memo to the path it
// caches. On generated worlds with an exchange, one RIB answers a random
// interleaving of Forward and NearestPoP queries while its topology takes
// random link flips and IXP joins — so the RIB goes deliberately stale and
// the memo must flush on every epoch change. Every answer, errors
// included, must deep-equal what a fresh, never-queried RIB over the same
// tables computes on its miss path, and a repeated query with no mutation
// in between must return the memoized Path itself.
func TestForwardMemoMatchesMissPath(t *testing.T) {
	cfg := topo.DefaultGenConfig()
	cfg.IXP = true
	cfg.Treated = 4
	var hits, flushes, errs int
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		tp, err := topo.Generate(r, cfg, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		fresh := func() *RIB { return &RIB{Topo: rib.Topo, Rel: rib.Rel, best: rib.best} }
		pops := tp.Export().PoPs
		ases := tp.ASes()
		// A small query set, so queries repeat and hit the memo.
		type query struct {
			src, dst topo.PoPID
			asn      topo.ASN
		}
		qs := make([]query, 6)
		for i := range qs {
			qs[i] = query{
				src: pops[r.Intn(len(pops))].ID,
				dst: pops[r.Intn(len(pops))].ID,
				asn: ases[r.Intn(len(ases))].ASN,
			}
		}
		lastPath := map[int]*Path{}
		for op := 0; op < 200; op++ {
			switch k := r.Intn(10); {
			case k == 0:
				n := len(tp.Export().Links)
				id := topo.LinkID(r.Intn(n))
				tp.SetLinkUp(id, !tp.Link(id).Up)
				clear(lastPath)
				flushes++
			case k == 1:
				_, _ = tp.JoinIXP(topo.GenIXPName, ases[r.Intn(len(ases))].ASN)
				clear(lastPath)
				flushes++
			case k < 6:
				i := r.Intn(len(qs))
				q := qs[i]
				got, gotErr := rib.Forward(q.src, q.dst)
				want, wantErr := fresh().forward(q.src, q.dst)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
					t.Logf("seed %d op %d: Forward(%d, %d) = %+v, %v; miss path %+v, %v",
						seed, op, q.src, q.dst, got, gotErr, want, wantErr)
					return false
				}
				if gotErr != nil {
					errs++
				}
				if prev, ok := lastPath[i]; ok && got != nil {
					if prev != got {
						t.Logf("seed %d op %d: repeated Forward(%d, %d) recomputed its path", seed, op, q.src, q.dst)
						return false
					}
					hits++
				}
				lastPath[i] = got
			default:
				q := qs[r.Intn(len(qs))]
				got, gotErr := rib.NearestPoP(q.src, q.asn)
				want, wantErr := fresh().nearestPoP(q.src, q.asn)
				if got != want || !reflect.DeepEqual(gotErr, wantErr) {
					t.Logf("seed %d op %d: NearestPoP(%d, AS%d) = %d, %v; miss path %d, %v",
						seed, op, q.src, q.asn, got, gotErr, want, wantErr)
					return false
				}
				if gotErr != nil {
					errs++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
	// The property is only as strong as the paths it exercised.
	if hits == 0 || flushes == 0 || errs == 0 {
		t.Fatalf("weak run: %d memo hits, %d epoch changes, %d error answers", hits, flushes, errs)
	}
}
