package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// genCountsWithinCap reports the first count of sp outside [0, GenMaxCount].
func genCountsWithinCap(sp GenSpec) error {
	c := sp.Config
	for _, f := range []struct {
		key string
		n   int
	}{
		{"tier1", c.Tier1}, {"tier2", c.Tier2}, {"access", c.Access},
		{"content", c.Content}, {"treated", c.Treated}, {"cities", c.Cities},
	} {
		if f.n < 0 || f.n > GenMaxCount {
			return fmt.Errorf("%s=%d outside [0, %d]", f.key, f.n, GenMaxCount)
		}
	}
	return nil
}

// genSpecText spells out every key of sp in the gen: grammar.
func genSpecText(sp GenSpec) string {
	c := sp.Config
	var b strings.Builder
	fmt.Fprintf(&b, "gen:tier1=%d+tier2=%d+access=%d+content=%d+treated=%d+cities=%d+multihome=%s+peer=%s+seed=%d",
		c.Tier1, c.Tier2, c.Access, c.Content, c.Treated, c.Cities,
		strconv.FormatFloat(c.MultihomeProb, 'g', -1, 64), strconv.FormatFloat(c.PeerProb, 'g', -1, 64), sp.Seed)
	if c.IXPCity != "" {
		b.WriteString("+ixpcity=" + c.IXPCity)
	}
	return b.String()
}

// FuzzParseGenSpec holds the gen: parser to its contract on arbitrary
// client text: it never panics, every accepted spec keeps its counts
// within GenMaxCount, and the accepted spec spelled back out parses to
// the same content-addressed ID.
func FuzzParseGenSpec(f *testing.F) {
	for _, s := range []string{
		"gen:", "gen:access=20+treated=5+seed=9+cities=16+multihome=0.25+ixpcity=City-002",
		"gen:access=10+treated=2+seed=3", "gen:access=10000000", "gen:multihome=NaN",
		"gen:peer=1e-300", "gen:ixpcity=a=b", "gen:access=5+", "notgen:",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sp, err := ParseGenSpec(spec)
		if err != nil {
			return
		}
		if err := genCountsWithinCap(sp); err != nil {
			t.Fatalf("%q accepted with %v", spec, err)
		}
		id := sp.ID()
		again, err := ParseGenSpec(genSpecText(sp))
		if err != nil {
			t.Fatalf("%q: canonical form %q refused: %v", spec, genSpecText(sp), err)
		}
		if again.ID() != id {
			t.Fatalf("%q: re-parsed ID %s, want %s", spec, again.ID(), id)
		}
	})
}
