package discover

import (
	"strings"
	"testing"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/scm"
	"sisyphus/internal/mathx"
)

// sample generates n draws from the model and returns them as a frame.
func sample(t *testing.T, m *scm.Model, seed uint64, n int) *data.Frame {
	t.Helper()
	cols, err := m.SampleN(mathx.NewRNG(seed), n)
	if err != nil {
		t.Fatal(err)
	}
	f, err := data.FromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPCRecoversChain(t *testing.T) {
	// X -> M -> Y: skeleton X—M—Y with no X—Y edge. The chain's
	// orientation is not identifiable (Markov equivalent to forks), so we
	// only require the skeleton.
	m := scm.New()
	_ = m.DefineLinear("X", nil, 0, scm.GaussianNoise(1))
	_ = m.DefineLinear("M", map[string]float64{"X": 1}, 0, scm.GaussianNoise(0.5))
	_ = m.DefineLinear("Y", map[string]float64{"M": 1}, 0, scm.GaussianNoise(0.5))
	f := sample(t, m, 1, 6000)
	p, err := PC(f, []string{"X", "M", "Y"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Adjacent("X", "M") || !p.Adjacent("M", "Y") {
		t.Fatalf("chain skeleton missing: %v", p)
	}
	if p.Adjacent("X", "Y") {
		t.Fatalf("spurious X—Y edge: %v", p)
	}
}

func TestPCRecoversVStructure(t *testing.T) {
	// X -> Z <- Y: the collider IS identifiable, PC must orient it.
	m := scm.New()
	_ = m.DefineLinear("X", nil, 0, scm.GaussianNoise(1))
	_ = m.DefineLinear("Y", nil, 0, scm.GaussianNoise(1))
	_ = m.DefineLinear("Z", map[string]float64{"X": 1, "Y": -1}, 0, scm.GaussianNoise(0.5))
	f := sample(t, m, 2, 6000)
	p, err := PC(f, []string{"X", "Y", "Z"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.dir["X"]["Z"] || !p.dir["Y"]["Z"] {
		t.Fatalf("v-structure not oriented: %v", p)
	}
	if p.Adjacent("X", "Y") {
		t.Fatalf("spurious X—Y edge: %v", p)
	}
}

func TestPCRunningExampleSkeleton(t *testing.T) {
	// The paper's C -> R, C -> L, R -> L triangle: fully connected, so the
	// skeleton is complete and nothing is removable.
	m := scm.New()
	_ = m.DefineLinear("C", nil, 0, scm.GaussianNoise(1))
	_ = m.DefineLinear("R", map[string]float64{"C": 0.8}, 0, scm.GaussianNoise(0.7))
	_ = m.DefineLinear("L", map[string]float64{"C": 2, "R": 3}, 0, scm.GaussianNoise(0.7))
	f := sample(t, m, 3, 8000)
	p, err := PC(f, []string{"C", "R", "L"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"C", "R"}, {"C", "L"}, {"R", "L"}} {
		if !p.Adjacent(pair[0], pair[1]) {
			t.Fatalf("triangle edge %v missing: %v", pair, p)
		}
	}
	ref := dag.MustParse("C -> R; C -> L; R -> L")
	cmp := Compare(p, ref)
	if len(cmp.SkeletonMissing) != 0 || len(cmp.SkeletonExtra) != 0 {
		t.Fatalf("skeleton mismatch: %+v", cmp)
	}
}

func TestPCWiderGraphSHD(t *testing.T) {
	// A 5-node graph with two colliders; require low structural error.
	m := scm.New()
	_ = m.DefineLinear("A", nil, 0, scm.GaussianNoise(1))
	_ = m.DefineLinear("B", nil, 0, scm.GaussianNoise(1))
	_ = m.DefineLinear("C", map[string]float64{"A": 1, "B": 1}, 0, scm.GaussianNoise(0.5))
	_ = m.DefineLinear("D", map[string]float64{"C": 1.2}, 0, scm.GaussianNoise(0.5))
	_ = m.DefineLinear("E", map[string]float64{"B": 1, "D": -1}, 0, scm.GaussianNoise(0.5))
	f := sample(t, m, 4, 10000)
	p, err := PC(f, []string{"A", "B", "C", "D", "E"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref := dag.MustParse("A -> C; B -> C; C -> D; B -> E; D -> E")
	cmp := Compare(p, ref)
	if len(cmp.SkeletonMissing) > 0 {
		t.Fatalf("missing adjacencies: %v (pdag %v)", cmp.SkeletonMissing, p)
	}
	if cmp.SHD > 2 {
		t.Fatalf("SHD = %d (pdag %v)", cmp.SHD, p)
	}
	if cmp.OrientedWrong > 0 {
		t.Fatalf("wrong orientations: %+v", cmp)
	}
	// The A → C ← B collider must be found.
	if !p.dir["A"]["C"] || !p.dir["B"]["C"] {
		t.Fatalf("collider at C unoriented: %v", p)
	}
}

func TestPCIndependentNodes(t *testing.T) {
	m := scm.New()
	_ = m.DefineLinear("X", nil, 0, scm.GaussianNoise(1))
	_ = m.DefineLinear("Y", nil, 0, scm.GaussianNoise(1))
	f := sample(t, m, 5, 4000)
	p, err := PC(f, []string{"X", "Y"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Adjacent("X", "Y") {
		t.Fatalf("independent nodes connected: %v", p)
	}
}

func TestPCErrorsAndAccessors(t *testing.T) {
	f, _ := data.FromColumns(map[string][]float64{"X": {1, 2, 3}})
	if _, err := PC(f, []string{"X", "missing"}, Config{}); err == nil {
		t.Fatal("missing column accepted")
	}
	p := NewPDAG([]string{"a", "b", "c"})
	p.addUndirected("a", "b")
	p.orient("a", "b")
	if !p.dir["a"]["b"] || p.und["a"]["b"] {
		t.Fatal("orientation bookkeeping broken")
	}
	if got := p.DirectedEdges(); len(got) != 1 || got[0] != [2]string{"a", "b"} {
		t.Fatalf("directed = %v", got)
	}
	p.addUndirected("b", "c")
	if got := p.UndirectedEdges(); len(got) != 1 || got[0] != [2]string{"b", "c"} {
		t.Fatalf("undirected = %v", got)
	}
	if s := p.String(); !strings.Contains(s, "a -> b") || !strings.Contains(s, "b -- c") {
		t.Fatalf("string = %q", s)
	}
}
