// Package scenario builds the concrete simulated worlds the experiments
// run on. A World is the common shape every experiment consumes: a
// topology, one exchange whose joining is "the treatment", content networks
// users measure against, and the treated/donor casting of ⟨ASN, city⟩
// analysis units. Worlds come from the registry (Build): the two canned
// seed worlds — the Table 1 South Africa scenario and its historical
// trombone-era counterpart — self-register by name, and arbitrarily many
// synthetic internets register under content-addressed gen/<cfghash> ids
// (see GenSpec).
package scenario

import (
	"fmt"

	"sisyphus/internal/netsim/topo"
)

// Unit is an ⟨ASN, city⟩ analysis unit.
type Unit struct {
	ASN  topo.ASN
	City string
}

func (u Unit) String() string { return fmt.Sprintf("AS%d/%s", u.ASN, u.City) }

// World is a built scenario: the common world shape every experiment runs
// on, whether canned or generated.
type World struct {
	Topo *topo.Topology
	// IXPName is the exchange whose joining is the treatment.
	IXPName string
	// IXPPrefix is the exchange's peering LAN prefix.
	IXPPrefix string
	// ContentASNs are the content networks users measure against; all are
	// founding IXP members. The first is the measurement destination.
	ContentASNs []topo.ASN
	// Treated lists the units whose ASes join the IXP mid-study.
	Treated []Unit
	// TreatedASNs is the deduplicated set of joining ASes.
	TreatedASNs []topo.ASN
	// Donors are access units whose ASes never join (the donor pool).
	Donors []Unit
	// MLabServerASNs host the M-Lab sites of the South Africa world
	// (distinct ASes so randomized assignment shifts AS paths); empty in
	// worlds without an M-Lab casting.
	MLabServerASNs []topo.ASN
	// Eyeball, MLab, Outage, and FailureCandidates are optional castings
	// (see casting.go): the world features that experiments beyond Table 1
	// need. Nil/empty means the world cannot host the experiments requiring
	// them, and those runners refuse with ErrCastingMissing.
	Eyeball           *EyeballCast
	MLab              *MLabCast
	Outage            *OutageCast
	FailureCandidates []FailureCandidate
}

// AllUnits returns treated then donor units.
func (s *World) AllUnits() []Unit {
	out := append([]Unit(nil), s.Treated...)
	return append(out, s.Donors...)
}

// UserPoP returns the PoP a unit's users measure from.
func (s *World) UserPoP(u Unit) (topo.PoPID, error) {
	return s.Topo.FindPoP(u.ASN, u.City)
}

// MeasureDst is the content AS user measurements target: the first content
// network (BigContent in both canned worlds, the first generated content AS
// in gen worlds).
func (s *World) MeasureDst() topo.ASN { return s.ContentASNs[0] }

// Freeze marks the world immutable: the underlying topology freezes, so
// subsequent Forks get copy-on-write clones that share the whole structure
// until their first mutation. The artifact store calls this once after a
// successful build, before any fork is handed out.
func (s *World) Freeze() { s.Topo.Freeze() }

// SizeBytes estimates the world's resident size for the artifact store's
// byte bound: the topology dominates; the casting lists ride on a small flat
// per-entry cost. An estimate, not an accounting — the LRU only needs
// relative magnitudes.
func (s *World) SizeBytes() int64 {
	const perUnit = 40 // Unit struct + slice slot
	const perASN = 8
	const perCast = 64 // a cast struct (or candidate entry) + slice slot
	n := s.Topo.SizeBytes()
	n += int64(len(s.Treated)+len(s.Donors)) * perUnit
	n += int64(len(s.ContentASNs)+len(s.TreatedASNs)+len(s.MLabServerASNs)) * perASN
	for _, p := range []bool{s.Eyeball != nil, s.MLab != nil, s.Outage != nil} {
		if p {
			n += perCast
		}
	}
	if s.Outage != nil {
		n += int64(len(s.Outage.Surge)+len(s.Outage.CutProviders)) * perASN
	}
	n += int64(len(s.FailureCandidates)) * perCast
	return n
}

// Fork returns an independent copy of the world: the topology is cloned
// (so IXP joins and link flaps stay private to the copy) and every slice is
// copied. On a frozen world the topology clone is pointer-cheap —
// copy-on-write — so the fork costs only the small casting slices.
// Required by the artifact store's fork-on-read rule.
func (s *World) Fork() *World {
	out := &World{
		Topo:              s.Topo.Clone(),
		IXPName:           s.IXPName,
		IXPPrefix:         s.IXPPrefix,
		ContentASNs:       append([]topo.ASN(nil), s.ContentASNs...),
		Treated:           append([]Unit(nil), s.Treated...),
		TreatedASNs:       append([]topo.ASN(nil), s.TreatedASNs...),
		Donors:            append([]Unit(nil), s.Donors...),
		MLabServerASNs:    append([]topo.ASN(nil), s.MLabServerASNs...),
		Eyeball:           forkEyeball(s.Eyeball),
		MLab:              forkMLab(s.MLab),
		Outage:            forkOutage(s.Outage),
		FailureCandidates: append([]FailureCandidate(nil), s.FailureCandidates...),
	}
	return out
}

// validate checks the casting lists against the topology so both
// constructors — canned build and generated build — hand out worlds the
// experiments can actually measure on: the IXP exists, every unit has a
// user PoP, and every cast ASN is in the topology.
func (s *World) validate(op string) error {
	if s.IXPName != "" {
		if _, err := s.Topo.IXP(s.IXPName); err != nil {
			return fmt.Errorf("scenario: %s: %w", op, err)
		}
	}
	for _, u := range s.AllUnits() {
		if _, err := s.UserPoP(u); err != nil {
			return fmt.Errorf("scenario: %s: unit %s: %w", op, u, err)
		}
	}
	for _, asn := range s.TreatedASNs {
		if _, err := s.Topo.AS(asn); err != nil {
			return fmt.Errorf("scenario: %s: treated: %w", op, err)
		}
	}
	for _, lists := range [][]topo.ASN{s.ContentASNs, s.MLabServerASNs} {
		for _, asn := range lists {
			if _, err := s.Topo.AS(asn); err != nil {
				return fmt.Errorf("scenario: %s: %w", op, err)
			}
		}
	}
	return s.validateCastings(op)
}
