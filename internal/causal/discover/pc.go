// Package discover implements constraint-based causal structure discovery
// (the PC algorithm with Meek orientation rules) on observational data.
// §4 of the paper argues DAGs "are not learned from data alone; they
// require domain insight" — discover is the complement: given the data, it
// recovers the equivalence class of structures the data supports, so a
// researcher can check whether their hand-drawn DAG is even compatible with
// what they measured.
package discover

import (
	"fmt"
	"sort"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
)

// PDAG is a partially directed acyclic graph: the output of PC is an
// equivalence class, where some edges are oriented (present in every member
// of the class) and some remain undirected.
type PDAG struct {
	nodes []string
	// undirected adjacency (symmetric) and directed edges (from → to).
	und map[string]map[string]bool
	dir map[string]map[string]bool
}

// NewPDAG returns an empty PDAG over the given nodes.
func NewPDAG(nodes []string) *PDAG {
	p := &PDAG{
		nodes: append([]string(nil), nodes...),
		und:   make(map[string]map[string]bool),
		dir:   make(map[string]map[string]bool),
	}
	for _, n := range nodes {
		p.und[n] = make(map[string]bool)
		p.dir[n] = make(map[string]bool)
	}
	return p
}

// Nodes returns the node names.
func (p *PDAG) Nodes() []string { return append([]string(nil), p.nodes...) }

// Adjacent reports any edge between a and b.
func (p *PDAG) Adjacent(a, b string) bool {
	return p.und[a][b] || p.dir[a][b] || p.dir[b][a]
}

func (p *PDAG) addUndirected(a, b string) { p.und[a][b] = true; p.und[b][a] = true }

func (p *PDAG) removeUndirected(a, b string) { delete(p.und[a], b); delete(p.und[b], a) }

// orient converts the undirected a—b into a → b.
func (p *PDAG) orient(a, b string) {
	p.removeUndirected(a, b)
	p.dir[a][b] = true
}

// neighbors returns all nodes adjacent to n (any edge type), sorted.
func (p *PDAG) neighbors(n string) []string {
	set := make(map[string]bool)
	for m := range p.und[n] {
		set[m] = true
	}
	for m := range p.dir[n] {
		set[m] = true
	}
	for _, other := range p.nodes {
		if p.dir[other][n] {
			set[other] = true
		}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// UndirectedEdges returns the undirected edges as sorted pairs.
func (p *PDAG) UndirectedEdges() [][2]string {
	var out [][2]string
	for _, a := range p.nodes {
		for b := range p.und[a] {
			if a < b {
				out = append(out, [2]string{a, b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// DirectedEdges returns the directed edges in deterministic order.
func (p *PDAG) DirectedEdges() [][2]string {
	var out [][2]string
	for _, a := range p.nodes {
		for b := range p.dir[a] {
			out = append(out, [2]string{a, b})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (p *PDAG) String() string {
	s := ""
	for _, e := range p.DirectedEdges() {
		s += fmt.Sprintf("%s -> %s; ", e[0], e[1])
	}
	for _, e := range p.UndirectedEdges() {
		s += fmt.Sprintf("%s -- %s; ", e[0], e[1])
	}
	return s
}

// Config tunes the PC run.
type Config struct {
	// Alpha is the CI-test significance level (default 0.01: PC prefers
	// conservative tests).
	Alpha float64
	// MaxCond bounds conditioning-set size (default 3).
	MaxCond int
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = 0.01
	}
	if c.MaxCond <= 0 {
		c.MaxCond = 3
	}
	return c
}

// PC runs the PC algorithm over the named columns of f: skeleton discovery
// by conditional-independence testing, v-structure orientation, then Meek
// rules. The CI test is partial-correlation based (linear/Gaussian).
func PC(f *data.Frame, cols []string, cfg Config) (*PDAG, error) {
	cfg = cfg.withDefaults()
	for _, c := range cols {
		if !f.Has(c) {
			return nil, fmt.Errorf("discover: no column %q", c)
		}
	}
	p := NewPDAG(cols)
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			p.addUndirected(cols[i], cols[j])
		}
	}
	// sepsets[x][y] records the set that separated x and y.
	sepsets := make(map[string]map[string][]string)
	recordSep := func(x, y string, s []string) {
		if sepsets[x] == nil {
			sepsets[x] = make(map[string][]string)
		}
		if sepsets[y] == nil {
			sepsets[y] = make(map[string][]string)
		}
		cp := append([]string(nil), s...)
		sepsets[x][y] = cp
		sepsets[y][x] = cp
	}

	// Stage 1: skeleton.
	for k := 0; k <= cfg.MaxCond; k++ {
		removed := false
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				x, y := cols[i], cols[j]
				if !p.und[x][y] {
					continue
				}
				// Candidate conditioning sets: neighbours of x minus y,
				// then neighbours of y minus x (the separator can live on
				// either side of the edge).
				found := false
				for _, cands := range [][]string{without(p.neighbors(x), y), without(p.neighbors(y), x)} {
					if found || len(cands) < k {
						continue
					}
					forEachSubset(cands, k, func(s []string) bool {
						res, err := estimate.CITest(f, x, y, s)
						if err != nil {
							return false
						}
						if res.PValue > cfg.Alpha {
							p.removeUndirected(x, y)
							recordSep(x, y, s)
							found = true
							return true // stop
						}
						return false
					})
				}
				if found {
					removed = true
				}
			}
		}
		if !removed && k > 0 {
			break
		}
	}

	// Stage 2: v-structures. For each path x — z — y with x, y nonadjacent:
	// orient x → z ← y iff z is NOT in sepset(x, y).
	for _, z := range cols {
		nb := p.neighbors(z)
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				x, y := nb[i], nb[j]
				if p.Adjacent(x, y) {
					continue
				}
				if !p.und[x][z] || !p.und[y][z] {
					continue
				}
				sep := sepsets[x][y]
				if containsStr(sep, z) {
					continue
				}
				p.orient(x, z)
				p.orient(y, z)
			}
		}
	}

	// Stage 3: Meek rules until fixpoint.
	for p.applyMeek() {
	}
	return p, nil
}

// applyMeek applies Meek rules R1–R3 once; returns true if anything changed.
func (p *PDAG) applyMeek() bool {
	changed := false
	for _, a := range p.nodes {
		for b := range copySet(p.und[a]) {
			// R1: c → a — b and c, b nonadjacent ⇒ a → b.
			for _, c := range p.nodes {
				if p.dir[c][a] && !p.Adjacent(c, b) {
					p.orient(a, b)
					changed = true
					break
				}
			}
			if !p.und[a][b] {
				continue
			}
			// R2: a → c → b and a — b ⇒ a → b.
			for _, c := range p.nodes {
				if p.dir[a][c] && p.dir[c][b] {
					p.orient(a, b)
					changed = true
					break
				}
			}
			if !p.und[a][b] {
				continue
			}
			// R3: a — c → b and a — d → b with c, d nonadjacent ⇒ a → b.
			var mids []string
			for _, c := range p.nodes {
				if p.und[a][c] && p.dir[c][b] {
					mids = append(mids, c)
				}
			}
			done := false
			for i := 0; i < len(mids) && !done; i++ {
				for j := i + 1; j < len(mids); j++ {
					if !p.Adjacent(mids[i], mids[j]) {
						p.orient(a, b)
						changed = true
						done = true
						break
					}
				}
			}
		}
	}
	return changed
}

// CompareResult quantifies agreement between a discovered PDAG and a
// reference DAG over the same nodes.
type CompareResult struct {
	// SkeletonMissing are adjacencies in the reference absent from the
	// discovery; SkeletonExtra the reverse.
	SkeletonMissing [][2]string
	SkeletonExtra   [][2]string
	// OrientedCorrect / OrientedWrong count directed edges in the PDAG that
	// agree / disagree with the reference orientation.
	OrientedCorrect int
	OrientedWrong   int
	// SHD is the structural Hamming distance (missing + extra + wrong).
	SHD int
}

// Compare evaluates the PDAG against a reference DAG (observed nodes only).
func Compare(p *PDAG, ref *dag.Graph) CompareResult {
	var res CompareResult
	nodes := p.Nodes()
	adjRef := func(a, b string) bool { return ref.HasEdge(a, b) || ref.HasEdge(b, a) }
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i], nodes[j]
			inP := p.Adjacent(a, b)
			inR := adjRef(a, b)
			if inR && !inP {
				res.SkeletonMissing = append(res.SkeletonMissing, [2]string{a, b})
			}
			if inP && !inR {
				res.SkeletonExtra = append(res.SkeletonExtra, [2]string{a, b})
			}
		}
	}
	for _, e := range p.DirectedEdges() {
		switch {
		case ref.HasEdge(e[0], e[1]):
			res.OrientedCorrect++
		case ref.HasEdge(e[1], e[0]):
			res.OrientedWrong++
		}
	}
	res.SHD = len(res.SkeletonMissing) + len(res.SkeletonExtra) + res.OrientedWrong
	return res
}

func without(xs []string, drop string) []string {
	var out []string
	for _, x := range xs {
		if x != drop {
			out = append(out, x)
		}
	}
	return out
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// forEachSubset visits size-k subsets of xs until fn returns true.
func forEachSubset(xs []string, k int, fn func([]string) bool) {
	if k == 0 {
		fn(nil)
		return
	}
	if k > len(xs) {
		return
	}
	set := make([]string, k)
	var rec func(start, depth int) bool
	rec = func(start, depth int) bool {
		if depth == k {
			return fn(set)
		}
		for i := start; i <= len(xs)-(k-depth); i++ {
			set[depth] = xs[i]
			if rec(i+1, depth+1) {
				return true
			}
		}
		return false
	}
	rec(0, 0)
}
