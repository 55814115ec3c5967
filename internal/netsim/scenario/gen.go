// Generated worlds: parameterized synthetic internets with stable
// content-addressed ids. A GenSpec — topo.GenConfig plus the generation
// seed — canonically hashes to a gen/<cfghash> id; RegisterGen puts the
// spec's builder in the world registry under that id, after which the id
// works everywhere a canned id does: experiment configs, artifact keys,
// and the -scenario/-scenarios flags.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
)

const (
	// GenIDPrefix prefixes every generated-world id.
	GenIDPrefix = "gen/"
	// GenSpecPrefix prefixes the human-writable spec form the CLI accepts.
	GenSpecPrefix = "gen:"
	// GenGrammar documents the spec form, for error messages and usage.
	GenGrammar = "gen:key=val[+key=val...] with keys tier1, tier2, access, content, treated, cities, multihome, peer, ixpcity, seed (omitted keys take defaults)"
	// GenMaxCount caps every count a gen: spec spells out. Specs arrive from
	// clients, and each count sizes the topology and the BGP fixed point
	// built from it; the cap sits well above the defaults and every
	// committed spec (largest: access=20, cities=16).
	GenMaxCount = 64
)

// GenSpec is the complete identity of a generated world: the topology
// generator's config plus the seed all generation randomness flows from.
// Equal specs build equal worlds, which is what lets the spec's hash serve
// as a world id in artifact keys.
type GenSpec struct {
	Config topo.GenConfig
	Seed   uint64
}

// DefaultGenSpec is the baseline synthetic internet: the topo package's
// default Internet-like mix with an exchange, four joinable access ASes,
// and eight donors.
func DefaultGenSpec() GenSpec {
	cfg := topo.DefaultGenConfig()
	cfg.IXP = true
	cfg.Treated = 4
	return GenSpec{Config: cfg, Seed: 1}
}

// ID returns the spec's content-addressed world id: gen/ followed by the
// first 16 hex chars of the sha256 over the spec's canonical JSON (struct
// fields marshal in declaration order, so equal specs hash equally no
// matter how they were constructed). RegisterGen verifies truncation never
// aliases two different specs.
func (sp GenSpec) ID() string {
	b, err := json.Marshal(sp)
	if err != nil {
		// GenSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("scenario: GenSpec marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return GenIDPrefix + hex.EncodeToString(sum[:])[:16]
}

// genSpecs remembers the spec behind each registered gen id, so the
// registry can answer what a gen/<cfghash> id means and detect (vanishingly
// unlikely) truncated-hash collisions. Guarded by the registry lock.
var genSpecs = map[string]GenSpec{}

// RegisterGen validates the spec, registers its builder under the spec's
// content-addressed id, and returns the id. Registering the same spec twice
// is idempotent; two different specs colliding on one id is an error.
func RegisterGen(sp GenSpec) (string, error) {
	if err := validateGenSpec(sp); err != nil {
		return "", err
	}
	id := sp.ID()
	reg.Lock()
	defer reg.Unlock()
	if prev, ok := genSpecs[id]; ok {
		if prev != sp {
			return "", fmt.Errorf("scenario: gen id %s collides: %+v vs %+v", id, prev, sp)
		}
		return id, nil
	}
	genSpecs[id] = sp
	reg.builders[id] = func() (*World, error) { return BuildGenerated(sp) }
	return id, nil
}

// validateGenSpec rejects specs that can never cast into a runnable world,
// so a bad -scenarios flag fails at parse time rather than once per sweep
// cell: the treatment needs an exchange, at least one joinable access AS,
// content to measure against, and enough never-treated access ASes for a
// donor pool (the Table 1 estimator needs 3 clean donors).
func validateGenSpec(sp GenSpec) error {
	c := sp.Config
	if !c.IXP {
		return fmt.Errorf("scenario: generated world needs Config.IXP (the exchange is the treatment)")
	}
	if c.Content < 1 {
		return fmt.Errorf("scenario: generated world needs at least one content AS (got %d)", c.Content)
	}
	if c.Treated < 1 {
		return fmt.Errorf("scenario: generated world needs at least one treated access AS (got %d)", c.Treated)
	}
	if c.Access-c.Treated < 3 {
		return fmt.Errorf("scenario: generated world needs at least 3 donor access ASes (access=%d, treated=%d)", c.Access, c.Treated)
	}
	return nil
}

// BuildGenerated constructs a generated world from its spec: generate the
// topology (all randomness from the spec seed), then cast the access tier —
// the first Config.Treated access ASes, joinable by construction, become
// treated units at their home city; every other access AS becomes a donor.
// Content networks are the founding exchange members, in ASN order, and the
// first one is the measurement destination.
func BuildGenerated(sp GenSpec) (*World, error) {
	if err := validateGenSpec(sp); err != nil {
		return nil, err
	}
	r := mathx.NewRNG(sp.Seed)
	t, err := topo.Generate(r, sp.Config, nil)
	if err != nil {
		return nil, fmt.Errorf("scenario: generate %s: %w", sp.ID(), err)
	}
	x, err := t.IXP(topo.GenIXPName)
	if err != nil {
		return nil, fmt.Errorf("scenario: generate %s: %w", sp.ID(), err)
	}
	s := &World{
		Topo:        t,
		IXPName:     x.Name,
		IXPPrefix:   x.Prefix,
		ContentASNs: append([]topo.ASN(nil), x.Members...),
	}
	for _, a := range t.ASes() {
		if a.Type != topo.Access {
			continue
		}
		home := t.PoP(t.PoPsOf(a.ASN)[0]).City
		u := Unit{ASN: a.ASN, City: home}
		// Generation assigns access ASNs densely from 3000 in index order;
		// the first Config.Treated of them carry the exchange PoP.
		if int(a.ASN)-3000 < sp.Config.Treated {
			if _, err := t.FindPoP(a.ASN, x.City); err != nil {
				return nil, fmt.Errorf("scenario: generate %s: treated %s: %w", sp.ID(), u, err)
			}
			s.Treated = append(s.Treated, u)
			s.TreatedASNs = append(s.TreatedASNs, a.ASN)
		} else {
			s.Donors = append(s.Donors, u)
		}
	}
	if err := castGenerated(s, x.City); err != nil {
		return nil, fmt.Errorf("scenario: generate %s: %w", sp.ID(), err)
	}
	return s, nil
}

// castGenerated derives the optional castings from a generated world's own
// topology, so any synthetic internet with the needed structure can host
// the full experiment set. Every choice is deterministic — lowest-ASN-first
// over sorted provider lists — because the world id is an artifact-key
// coordinate. Worlds lacking the structure (no multihomed access AS, fewer
// than two content ASes) leave the cast nil: the experiments needing it
// refuse with ErrCastingMissing rather than measuring nonsense.
func castGenerated(s *World, ixpCity string) error {
	rel, err := s.Topo.Relationships()
	if err != nil {
		return err
	}
	providersOf := func(asn topo.ASN) []topo.ASN {
		var out []topo.ASN
		for b, k := range rel.Rel[asn] {
			if k == topo.RelCustomer {
				out = append(out, b)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	content := s.MeasureDst()
	cprovs := providersOf(content)
	if len(cprovs) == 0 {
		// A content AS without transit cannot anchor any cast; leave all nil.
		return nil
	}

	// Eyeball: the first access unit (treated before donors, both in ASN
	// order) whose AS has two transit providers.
	for _, u := range s.AllUnits() {
		provs := providersOf(u.ASN)
		if len(provs) >= 2 {
			s.Eyeball = &EyeballCast{
				ASN: u.ASN, City: u.City,
				Primary: provs[0], Alternate: provs[1],
				SharedUplink: LinkRef{A: content, B: cprovs[0], Index: 0},
			}
			break
		}
	}

	// Measurement platform: two content ASes host the server sites at the
	// exchange city; the first treated AS (which has an exchange-city PoP by
	// construction) is the user; the second site's uplink is the one the
	// self-selection story congests.
	if len(s.ContentASNs) >= 2 && len(s.TreatedASNs) > 0 {
		siteB := s.ContentASNs[1]
		bprovs := providersOf(siteB)
		if len(bprovs) > 0 {
			s.MLabServerASNs = []topo.ASN{s.ContentASNs[0], siteB}
			s.MLab = &MLabCast{
				UserASN: s.TreatedASNs[0], UserCity: ixpCity, ServerCity: ixpCity,
				CongestedUplink: LinkRef{A: siteB, B: bprovs[0], Index: 0},
			}
		}
	}

	// Outage: the surge (the red herring) lands on the first treated AS's
	// uplinks; the cut withdraws the content AS from all of its providers.
	if len(s.TreatedASNs) > 0 {
		t0 := s.TreatedASNs[0]
		var surge []LinkRef
		for _, p := range providersOf(t0) {
			surge = append(surge, LinkRef{A: t0, B: p, Index: 0})
		}
		if len(surge) > 0 {
			s.Outage = &OutageCast{Surge: surge, CutProviders: cprovs}
		}
	}

	// Failure candidates: the content uplinks (high exposure) plus the first
	// access tails from each casting group (tiny exposure, total impact for
	// single-homed tails).
	addTail := func(units []Unit, label string, n int) {
		for i := 0; i < len(units) && i < n; i++ {
			asn := units[i].ASN
			provs := providersOf(asn)
			if len(provs) == 0 {
				continue
			}
			s.FailureCandidates = append(s.FailureCandidates, FailureCandidate{
				Name: fmt.Sprintf("%s AS%d–AS%d", label, asn, provs[0]),
				Link: LinkRef{A: asn, B: provs[0], Index: 0},
			})
		}
	}
	for _, p := range cprovs {
		s.FailureCandidates = append(s.FailureCandidates, FailureCandidate{
			Name: fmt.Sprintf("Content AS%d–AS%d", content, p),
			Link: LinkRef{A: content, B: p, Index: 0},
		})
	}
	addTail(s.Treated, "Access", 2)
	addTail(s.Donors, "Donor", 2)
	return nil
}

// ResolveID resolves a scenario token from a flag to a registered world id:
// a known id passes through; a gen: spec is parsed and registered, yielding
// its content-addressed gen/<cfghash> id; anything else errors with the
// known-id list and the gen grammar.
func ResolveID(token string) (string, error) {
	if strings.HasPrefix(token, GenSpecPrefix) {
		sp, err := ParseGenSpec(token)
		if err != nil {
			return "", err
		}
		return RegisterGen(sp)
	}
	if !Registered(token) {
		return "", fmt.Errorf("scenario: unknown scenario id %q (known: %s; generated worlds: %s)",
			token, strings.Join(IDs(), ", "), GenGrammar)
	}
	return token, nil
}

// ParseGenSpec parses the human-writable gen: form ("gen:access=20+seed=7")
// into a spec, starting from DefaultGenSpec so only the keys that differ
// need spelling out. `+` separates pairs (comma belongs to the -scenarios
// list). A bare "gen:" is the default spec.
func ParseGenSpec(spec string) (GenSpec, error) {
	if !strings.HasPrefix(spec, GenSpecPrefix) {
		return GenSpec{}, fmt.Errorf("scenario: gen spec %q must start with %q (%s)", spec, GenSpecPrefix, GenGrammar)
	}
	sp := DefaultGenSpec()
	body := strings.TrimPrefix(spec, GenSpecPrefix)
	if body == "" {
		return sp, nil
	}
	for _, pair := range strings.Split(body, "+") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" || v == "" {
			return GenSpec{}, fmt.Errorf("scenario: gen spec %q: malformed pair %q (want key=val; %s)", spec, pair, GenGrammar)
		}
		var err error
		switch k {
		case "tier1":
			sp.Config.Tier1, err = parseGenCount(v)
		case "tier2":
			sp.Config.Tier2, err = parseGenCount(v)
		case "access":
			sp.Config.Access, err = parseGenCount(v)
		case "content":
			sp.Config.Content, err = parseGenCount(v)
		case "treated":
			sp.Config.Treated, err = parseGenCount(v)
		case "cities":
			sp.Config.Cities, err = parseGenCount(v)
		case "multihome":
			sp.Config.MultihomeProb, err = parseGenProb(v)
		case "peer":
			sp.Config.PeerProb, err = parseGenProb(v)
		case "ixpcity":
			sp.Config.IXPCity = v
		case "seed":
			sp.Seed, err = strconv.ParseUint(v, 10, 64)
		default:
			return GenSpec{}, fmt.Errorf("scenario: gen spec %q: unknown key %q (%s)", spec, k, GenGrammar)
		}
		if err != nil {
			return GenSpec{}, fmt.Errorf("scenario: gen spec %q: key %q: %w", spec, k, err)
		}
	}
	return sp, nil
}

func parseGenCount(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < 0 || n > GenMaxCount {
		return 0, fmt.Errorf("must be in [0, %d] (got %d)", GenMaxCount, n)
	}
	return n, nil
}

func parseGenProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // also refuses NaN, which the spec's hash cannot encode
		return 0, fmt.Errorf("must be in [0, 1] (got %g)", p)
	}
	return p, nil
}
