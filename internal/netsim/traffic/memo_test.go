package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
)

// refModel is Utilization without the memo: the same formula recomputed on
// every read, with its noise in a map, every flash crowd in one list and
// the load shifts by link.
type refModel struct {
	topo   *topo.Topology
	seed   uint64
	noise  map[topo.LinkID]*ar1
	flash  []FlashCrowd
	shifts map[topo.LinkID][]loadShift
}

func newRefModel(t *topo.Topology, seed uint64) *refModel {
	return &refModel{topo: t, seed: seed, noise: map[topo.LinkID]*ar1{}, shifts: map[topo.LinkID][]loadShift{}}
}

func (m *refModel) utilization(id topo.LinkID, utcHour float64, step int) float64 {
	l := m.topo.Link(id)
	city := m.topo.Registry.MustGet(m.topo.PoP(l.A).City)
	base := l.BaseUtil * Diurnal(utcHour, city.UTCOffset)
	n, ok := m.noise[id]
	if !ok {
		n = &ar1{rng: *mathx.NewRNG(m.seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15), phi: 0.9, sigma: 0.02, lastStep: -1}
		m.noise[id] = n
	}
	for n.lastStep < step {
		n.state = n.phi*n.state + n.rng.Normal(0, n.sigma)
		n.lastStep++
	}
	u := base + n.state
	for _, f := range m.flash {
		if f.Link == id {
			u += f.activeFactor(utcHour)
		}
	}
	for _, s := range m.shifts[id] {
		if utcHour >= s.fromHour {
			u += s.delta
		}
	}
	if u < 0 {
		return 0
	}
	if u > 0.985 {
		return 0.985
	}
	return u
}

// TestUtilizationMemoMatchesMissPath holds the memoized model to refModel
// under math.Float64bits over random sequences of reads — repeated within a
// step, one step read at several hours, an earlier step read again — mixed
// with flash crowds and load shifts added mid-run (on links already read
// this step) and IXP joins that add links after the first reads.
func TestUtilizationMemoMatchesMissPath(t *testing.T) {
	cfg := topo.DefaultGenConfig()
	cfg.IXP = true
	cfg.Treated = 4
	var hits, reads, edits, joins int
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		tp, err := topo.Generate(r, cfg, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		m, ref := NewModel(tp, seed), newRefModel(tp, seed)
		ases := tp.ASes()
		// A small hot set, so reads repeat and hit the memo and edits land
		// on links already read.
		hot := make([]topo.LinkID, 4)
		for i := range hot {
			hot[i] = topo.LinkID(r.Intn(tp.NumLinks()))
		}
		step, hour := 0, 0.0
		for op := 0; op < 300; op++ {
			id := hot[r.Intn(len(hot))]
			switch k := r.Intn(20); {
			case k < 3:
				step++
				hour += float64(1+r.Intn(4)) / 4
			case k == 3:
				fc := FlashCrowd{Link: id, StartHour: hour - 2*r.Float64(), Hours: 1 + 6*r.Float64(), Magnitude: r.Float64()}
				m.AddFlashCrowd(fc)
				ref.flash = append(ref.flash, fc)
				edits++
			case k == 4:
				from, delta := hour-r.Float64(), 0.3*(r.Float64()-0.5)
				m.AddLoadShift(id, from, delta)
				ref.shifts[id] = append(ref.shifts[id], loadShift{from, delta})
				edits++
			case k == 5:
				added, err := tp.JoinIXP(topo.GenIXPName, ases[r.Intn(len(ases))].ASN)
				if err == nil && len(added) > 0 {
					hot = append(hot, added...)
					joins++
				}
			default:
				at, h := step, hour
				switch r.Intn(6) {
				case 0: // the same step at another hour
					h += float64(r.Intn(48)) / 4
				case 1: // an earlier step
					at = max(step-1-r.Intn(2), 0)
				}
				s := m.link(id)
				if s.memoOK && s.memoStep == at && s.memoHour == math.Float64bits(h) && s.memoGen == m.gen {
					hits++
				}
				got, want := m.Utilization(id, h, at), ref.utilization(id, h, at)
				reads++
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Logf("seed %d op %d: Utilization(%d, %v, %d) = %v; miss path %v", seed, op, id, h, at, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// The property is vacuous unless the memo answered reads and edits and
	// joins landed between them.
	if hits == 0 || edits == 0 || joins == 0 {
		t.Fatalf("memo never exercised: %d hits in %d reads, %d edits, %d joins", hits, reads, edits, joins)
	}
	t.Logf("%d memo hits in %d reads, %d edits, %d joins", hits, reads, edits, joins)
}
