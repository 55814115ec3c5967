package dag

import (
	"strings"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
)

// paperGraph is the running example of §3 extended with the mechanisms the
// paper names: congestion C confounds route R and latency L; a speed test T
// is a collider of R and L; U is a latent business-policy driver of R.
func paperGraph() *Graph {
	return MustParse(`
		U [latent]
		C -> R; C -> L; R -> L
		R -> T; L -> T
		U -> R
	`)
}

// mustEdge adds from → to, failing the test on error.
func mustEdge(t *testing.T, g *Graph, from, to string) {
	t.Helper()
	if err := g.AddEdge(from, to); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeRejectsCycles(t *testing.T) {
	g := New()
	mustEdge(t, g, "A", "B")
	mustEdge(t, g, "B", "C")
	if err := g.AddEdge("C", "A"); err == nil {
		t.Fatal("cycle not rejected")
	}
	if err := g.AddEdge("A", "A"); err == nil {
		t.Fatal("self-loop not rejected")
	}
	// Graph unchanged by the failed adds.
	if g.HasEdge("C", "A") {
		t.Fatal("rejected edge was inserted")
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New()
	mustEdge(t, g, "A", "B")
	mustEdge(t, g, "A", "B")
	if got := len(g.Edges()); got != 1 {
		t.Fatalf("edges = %d", got)
	}
}

func TestAncestorsDescendants(t *testing.T) {
	g := paperGraph()
	anc := sortedKeys(g.ancestorSet(map[string]bool{"T": true}, false))
	want := []string{"C", "L", "R", "U"}
	if strings.Join(anc, ",") != strings.Join(want, ",") {
		t.Fatalf("ancestors(T) = %v", anc)
	}
	desc := g.Descendants("C")
	want = []string{"L", "R", "T"}
	if strings.Join(desc, ",") != strings.Join(want, ",") {
		t.Fatalf("descendants(C) = %v", desc)
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := paperGraph()
	order := g.TopologicalOrder()
	if len(order) != 5 {
		t.Fatalf("order = %v", order)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("edge %v violates order %v", e, order)
		}
	}
}

func TestDSeparationRunningExample(t *testing.T) {
	g := paperGraph()
	// Chain/fork: R and L are d-connected unconditionally (direct edge).
	if g.DSeparated("R", "L", nil) {
		t.Fatal("R, L should be connected")
	}
	// U affects L only through R: cutting nothing, U-L connected.
	if g.DSeparated("U", "L", nil) {
		t.Fatal("U, L should be connected via R")
	}
	// Conditioning on R blocks the chain U -> R -> L but conditioning on the
	// collider T would re-open U — L; R alone is not enough because T stays
	// unconditioned: U ⊥ L | R holds here (U -> R -> L and U -> R <- C -> L:
	// second path has collider R, conditioned ⇒ opened! C -> L active.)
	if g.DSeparated("U", "L", []string{"R"}) {
		t.Fatal("conditioning on collider R opens U — C — L")
	}
	if !g.DSeparated("U", "L", []string{"R", "C"}) {
		t.Fatal("U ⊥ L | R, C should hold")
	}
	// Collider: R and L both cause T. R—L are adjacent so use U and C:
	// U -> R <- C: U ⊥ C unconditionally, but conditioning on R (collider)
	// or its descendant T opens the path.
	if !g.DSeparated("U", "C", nil) {
		t.Fatal("U ⊥ C should hold unconditionally")
	}
	if g.DSeparated("U", "C", []string{"R"}) {
		t.Fatal("conditioning on collider R should open U — C")
	}
	if g.DSeparated("U", "C", []string{"T"}) {
		t.Fatal("conditioning on collider descendant T should open U — C")
	}
}

func TestDSeparatedConventions(t *testing.T) {
	g := paperGraph()
	if g.DSeparated("R", "R", nil) {
		t.Fatal("a node is never separated from itself")
	}
	if !g.DSeparated("R", "L", []string{"R"}) {
		t.Fatal("conditioning on an endpoint separates it")
	}
}

// randomDAG builds a random DAG over n nodes; edge i->j allowed only for i<j.
func randomDAG(r *mathx.RNG, n int, p float64) *Graph {
	g := New()
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
		g.AddNode(names[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bernoulli(p) {
				// i < j, so the edge can never close a cycle.
				_ = g.AddEdge(names[i], names[j])
			}
		}
	}
	return g
}

// TestDSeparationMatchesPathEnumeration cross-checks the Bayes-ball
// implementation against brute-force path blocking on random DAGs.
func TestDSeparationMatchesPathEnumeration(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		n := 3 + r.Intn(5) // 3..7 nodes
		g := randomDAG(r, n, 0.4)
		nodes := g.Nodes()
		x := nodes[r.Intn(n)]
		y := nodes[r.Intn(n)]
		if x == y {
			return true
		}
		var given []string
		for _, c := range nodes {
			if c != x && c != y && r.Bernoulli(0.3) {
				given = append(given, c)
			}
		}
		fast := g.DSeparated(x, y, given)
		slow := len(g.ActivePaths(x, y, given)) == 0
		return fast == slow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDSeparationSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		g := randomDAG(r, 3+r.Intn(5), 0.4)
		nodes := g.Nodes()
		x := nodes[r.Intn(len(nodes))]
		y := nodes[r.Intn(len(nodes))]
		var given []string
		for _, c := range nodes {
			if c != x && c != y && r.Bernoulli(0.3) {
				given = append(given, c)
			}
		}
		return g.DSeparated(x, y, given) == g.DSeparated(y, x, given)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBackdoorPathsRunningExample(t *testing.T) {
	g := MustParse("C -> R; C -> L; R -> L")
	bd := g.BackdoorPaths("R", "L")
	if len(bd) != 1 {
		t.Fatalf("backdoor paths = %v", bd)
	}
	if got := bd[0].String(); got != "R <- C -> L" {
		t.Fatalf("path = %q", got)
	}
}

func TestSatisfiesBackdoor(t *testing.T) {
	g := MustParse("C -> R; C -> L; R -> L")
	if g.SatisfiesBackdoor("R", "L", nil) {
		t.Fatal("empty set should not satisfy backdoor (C confounds)")
	}
	if !g.SatisfiesBackdoor("R", "L", []string{"C"}) {
		t.Fatal("{C} should satisfy backdoor")
	}
	// A descendant of treatment is never allowed.
	g2 := MustParse("C -> R; C -> L; R -> L; R -> M")
	if g2.SatisfiesBackdoor("R", "L", []string{"C", "M"}) {
		t.Fatal("descendant of treatment accepted")
	}
}

func TestMinimalAdjustmentSets(t *testing.T) {
	g := MustParse("C -> R; C -> L; R -> L")
	sets, err := g.MinimalAdjustmentSets("R", "L")
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || len(sets[0]) != 1 || sets[0][0] != "C" {
		t.Fatalf("sets = %v", sets)
	}
}

func TestMinimalAdjustmentSetsEmptyWhenNoConfounding(t *testing.T) {
	g := MustParse("R -> L; R -> M; M -> L")
	sets, err := g.MinimalAdjustmentSets("R", "L")
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || len(sets[0]) != 0 {
		t.Fatalf("want single empty set, got %v", sets)
	}
}

func TestMinimalAdjustmentSetsLatentConfounderFails(t *testing.T) {
	g := MustParse("U [latent]; U -> R; U -> L; R -> L")
	if _, err := g.MinimalAdjustmentSets("R", "L"); err == nil {
		t.Fatal("latent confounding should make backdoor adjustment impossible")
	}
}

func TestMinimalAdjustmentSetsAreMinimal(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		g := randomDAG(r, 3+r.Intn(4), 0.45)
		nodes := g.Nodes()
		x := nodes[r.Intn(len(nodes))]
		y := nodes[r.Intn(len(nodes))]
		if x == y {
			return true
		}
		sets, err := g.MinimalAdjustmentSets(x, y)
		if err != nil {
			return true // unidentifiable: fine
		}
		for _, s := range sets {
			if !g.SatisfiesBackdoor(x, y, s) {
				return false
			}
			// Every strict subset must fail (minimality).
			for drop := range s {
				sub := append(append([]string(nil), s[:drop]...), s[drop+1:]...)
				if g.SatisfiesBackdoor(x, y, sub) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConfounders(t *testing.T) {
	g := paperGraph()
	got := g.Confounders("R", "L")
	if strings.Join(got, ",") != "C" {
		t.Fatalf("confounders = %v", got)
	}
}

func TestFrontdoorCriterion(t *testing.T) {
	// Classic: U latent confounder of X,Y; X -> M -> Y. M is a frontdoor set.
	g := MustParse("U [latent]; U -> X; U -> Y; X -> M; M -> Y")
	if !g.SatisfiesFrontdoor("X", "Y", []string{"M"}) {
		t.Fatal("M should satisfy frontdoor")
	}
	// If U also hits M, condition (2) fails.
	g2 := MustParse("U [latent]; U -> X; U -> Y; U -> M; X -> M; M -> Y")
	if g2.SatisfiesFrontdoor("X", "Y", []string{"M"}) {
		t.Fatal("frontdoor should fail when confounder reaches mediator")
	}
	// A direct X -> Y edge bypasses the mediator set: condition (1) fails.
	g3 := MustParse("U [latent]; U -> X; U -> Y; X -> M; M -> Y; X -> Y")
	if g3.SatisfiesFrontdoor("X", "Y", []string{"M"}) {
		t.Fatal("frontdoor should fail with unintercepted directed path")
	}
}

func TestInstrumentsMaintenanceExample(t *testing.T) {
	// Scheduled maintenance Z forces a reroute R; latent congestion U
	// confounds R and L. Z is a valid instrument.
	g := MustParse("U [latent]; U -> R; U -> L; Z -> R; R -> L")
	ivs := g.Instruments("R", "L")
	if len(ivs) != 1 || ivs[0] != "Z" {
		t.Fatalf("instruments = %v", ivs)
	}
}

func TestInstrumentExclusionViolation(t *testing.T) {
	// A local-pref change Z that also shifts load W -> L violates exclusion
	// (the paper's invalid-instrument example).
	g := MustParse("U [latent]; U -> R; U -> L; Z -> R; Z -> W; W -> L; R -> L")
	if ivs := g.Instruments("R", "L"); len(ivs) != 0 {
		t.Fatalf("expected no valid instruments, got %v", ivs)
	}
	viol := g.ExclusionViolations("Z", "R", "L")
	if len(viol) == 0 {
		t.Fatal("expected at least one exclusion violation path")
	}
	found := false
	for _, p := range viol {
		if p.String() == "Z -> W -> L" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations = %v", viol)
	}
}

func TestColliders(t *testing.T) {
	g := paperGraph()
	cols := g.Colliders()
	// R has parents C, U; L has parents C, R; T has parents L, R.
	if len(cols) != 3 {
		t.Fatalf("colliders = %v", cols)
	}
}

func TestSelectionBiasWarnings(t *testing.T) {
	// Route change R and performance L both trigger a test T; R, L otherwise
	// independent (no R -> L edge) — the paper's speed-test collider.
	g := MustParse("R -> T; L -> T")
	warn := g.SelectionBiasWarnings([]string{"T"})
	if len(warn) != 1 || warn[0].Mid != "T" {
		t.Fatalf("warnings = %v", warn)
	}
	if w := g.SelectionBiasWarnings(nil); len(w) != 0 {
		t.Fatalf("no conditioning should give no warnings, got %v", w)
	}
	// Conditioning on a descendant of the collider also warns.
	mustEdge(t, g, "T", "T2")
	warn = g.SelectionBiasWarnings([]string{"T2"})
	if len(warn) != 1 {
		t.Fatalf("descendant warnings = %v", warn)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"A -> ",
		"A -> -> B",
		"A [bogus]",
		"A -> B; B -> A",
		"A B -> C",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Fatalf("Parse(%q) should fail", c)
		}
	}
}

func TestParseChainsCommentsAndAttrs(t *testing.T) {
	g, err := Parse(`
		# the running example
		C -> R -> L
		C -> L
		U [latent]
		U -> R
	`)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge("C", "R") || !g.HasEdge("R", "L") || !g.HasEdge("C", "L") {
		t.Fatal("chain edges missing")
	}
	if !g.IsLatent("U") {
		t.Fatal("latent attribute lost")
	}
}

func TestDOTOutput(t *testing.T) {
	g := MustParse("U [latent]; U -> R; R -> L")
	dot := g.DOT()
	for _, want := range []string{"digraph causal", `"U" [style=dashed]`, `"U" -> "R"`, `"R" -> "L"`} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestImpliedIndependencies(t *testing.T) {
	g := MustParse("C -> R; C -> L; R -> L; Z -> R")
	cis := g.ImpliedIndependencies()
	// Z ⊥ C and Z ⊥ L (given parents) should be implied.
	var have []string
	for _, ci := range cis {
		have = append(have, ci.String())
	}
	joined := strings.Join(have, " ; ")
	if !strings.Contains(joined, "C _||_ Z") {
		t.Fatalf("missing C ⊥ Z in %v", have)
	}
	// All implied CIs must actually hold per d-separation.
	for _, ci := range cis {
		if !g.DSeparated(ci.X, ci.Y, ci.Given) {
			t.Fatalf("claimed CI does not hold: %v", ci)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := paperGraph()
	c := g.Clone()
	mustEdge(t, c, "L", "Q")
	if g.Has("Q") {
		t.Fatal("clone mutation leaked into original")
	}
	c.SetLatent("C", true)
	if g.IsLatent("C") {
		t.Fatal("latent flag leaked into original")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := MustParse("A -> B; B -> C")
	g.RemoveEdge("A", "B")
	if g.HasEdge("A", "B") {
		t.Fatal("edge not removed")
	}
	if !g.DSeparated("A", "C", nil) {
		t.Fatal("A should be separated from C after removal")
	}
}

func TestMarkovBlanket(t *testing.T) {
	g := paperGraph() // U->R, C->R, C->L, R->L, R->T, L->T
	// Blanket of R: parents {C, U}, children {L, T}, co-parents of L = {C},
	// co-parents of T = {L}.
	got := g.MarkovBlanket("R")
	want := []string{"C", "L", "T", "U"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("blanket(R) = %v want %v", got, want)
	}
	// Blanket property: R ⊥ (everything else) | blanket. Here "everything
	// else" is empty (all nodes are in the blanket), so check a bigger graph.
	g2 := MustParse("A -> B; B -> C; C -> D")
	if bl := g2.MarkovBlanket("B"); strings.Join(bl, ",") != "A,C" {
		t.Fatalf("blanket(B) = %v", bl)
	}
	if !g2.DSeparated("B", "D", g2.MarkovBlanket("B")) {
		t.Fatal("node not separated from non-blanket given blanket")
	}
	if got := New().MarkovBlanket("missing"); len(got) != 0 {
		t.Fatalf("blanket of unknown node = %v", got)
	}
}

func TestMarkovBlanketProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		g := randomDAG(r, 4+r.Intn(4), 0.4)
		nodes := g.Nodes()
		x := nodes[r.Intn(len(nodes))]
		blanket := g.MarkovBlanket(x)
		inBlanket := map[string]bool{x: true}
		for _, b := range blanket {
			inBlanket[b] = true
		}
		for _, y := range nodes {
			if inBlanket[y] {
				continue
			}
			if !g.DSeparated(x, y, blanket) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
