package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"sisyphus/internal/artifact"
	"sisyphus/internal/causal/dag"
	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// The /query endpoint answers declarative causal questions against the §3
// running-example observational substrate: per-hour columns R (alternate
// route in use), L (RTT ms), C (utilization) and hour, simulated from the
// South Africa world with a load-adaptive egress. A query names a
// treatment, an outcome, and an adjustment strategy; the engine compiles it
// through dag identification (backdoor criterion) into an estimator
// pipeline and runs it like any experiment — same pipeline seams, same
// artifact store, same determinism contract.

// QueryDefaultGraph is the planning DAG assumed when a query names none:
// the paper's running example, where congestion confounds routing and
// latency.
const QueryDefaultGraph = "C -> R; C -> L; R -> L"

// Query knob bounds. Hours is capped to a simulated year: the substrate
// costs ~7ms per simulated hour, so the cap bounds a single build at about
// a minute; the floor keeps enough observations for stratification to mean
// anything.
const (
	QueryMinHours = 100
	QueryMaxHours = 8760
	QueryMaxBins  = 50
	// QueryMaxGraphNodes caps the planning DAG's size. Identification
	// enumerates paths and candidate subsets, both exponential in the worst
	// case; planning DAGs in measurement studies name a handful of
	// variables, and the cap keeps a hostile dense graph from turning
	// compilation into a CPU sink.
	QueryMaxGraphNodes = 8
	// queryMaxBodyBytes bounds how much of a query document the decoder
	// will even look at; the HTTP layer enforces the same bound with
	// MaxBytesReader before the body is read.
	QueryMaxBodyBytes = 1 << 16
)

// Sentinel errors the serving layer maps onto status codes: an invalid
// query is the caller's malformed request (400); a non-identifiable one is
// well-formed but has no observed-backdoor answer under its DAG (422).
var (
	ErrQueryInvalid    = errors.New("experiments: invalid causal query")
	ErrNotIdentifiable = errors.New("experiments: effect not identifiable")
)

func queryInvalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrQueryInvalid, fmt.Sprintf(format, args...))
}

// CausalQuery is a normalized declarative causal question. The zero value
// is not runnable; DecodeCausalQuery and CompileCausalQuery fill defaults
// (graph, scenario, seed 42, hours 1500, bins 10).
type CausalQuery struct {
	// Graph is the planning DAG in dag.Parse syntax
	// ("C -> R; C -> L; R -> L; U [latent]").
	Graph string
	// Treatment and Outcome name graph nodes that must also be measured
	// dataset columns.
	Treatment string
	Outcome   string
	// Adjustment is the conditioning set. Nil with Auto set means the
	// engine chose it by backdoor identification.
	Adjustment []string
	// Auto records whether the adjustment set was identified rather than
	// supplied.
	Auto bool
	// Scenario names the world the substrate simulates: any registered id
	// or a gen: spec (which registers on compile). The default is the
	// South Africa world. Worlds that do not cast a multihomed eyeball
	// compile fine but refuse at run time with scenario.ErrCastingMissing
	// — not identifiable on that world, not a malformed question.
	Scenario string
	// Seed roots all simulation randomness, as everywhere else.
	Seed uint64
	// Hours is the simulated horizon; Bins the stratification granularity.
	Hours int
	Bins  int
}

// queryDoc is the JSON wire shape of a causal query. Adjustment is raw so
// both the string "auto" and an explicit array decode through one field.
type queryDoc struct {
	Graph      string          `json:"graph"`
	Treatment  string          `json:"treatment"`
	Outcome    string          `json:"outcome"`
	Adjustment json.RawMessage `json:"adjustment"`
	Scenario   string          `json:"scenario"`
	Seed       *uint64         `json:"seed"`
	Hours      int             `json:"hours"`
	Bins       int             `json:"bins"`
}

// DecodeCausalQuery parses a JSON query document strictly: unknown fields,
// trailing data, wrong types, out-of-range knobs and overflowing seeds are
// all ErrQueryInvalid, never a panic. Missing fields take defaults
// (QueryDefaultGraph, scenario "southafrica", seed 42, hours 1500,
// bins 10, adjustment "auto").
func DecodeCausalQuery(raw []byte) (CausalQuery, error) {
	var zero CausalQuery
	if len(raw) > QueryMaxBodyBytes {
		return zero, queryInvalidf("document exceeds %d bytes", QueryMaxBodyBytes)
	}
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return zero, queryInvalidf("empty document")
	}
	var doc queryDoc
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return zero, queryInvalidf("%v", err)
	}
	if dec.More() {
		return zero, queryInvalidf("trailing data after JSON document")
	}

	q := CausalQuery{
		Graph:     doc.Graph,
		Treatment: doc.Treatment,
		Outcome:   doc.Outcome,
		Scenario:  doc.Scenario,
		Seed:      42,
		Hours:     doc.Hours,
		Bins:      doc.Bins,
	}
	if doc.Seed != nil {
		q.Seed = *doc.Seed
	}

	// Adjustment: absent or JSON null or "auto" → identified; otherwise an
	// explicit array of column names.
	adj := bytes.TrimSpace(doc.Adjustment)
	switch {
	case len(adj) == 0 || string(adj) == "null":
		q.Auto = true
	case adj[0] == '"':
		var s string
		if err := json.Unmarshal(adj, &s); err != nil || s != "auto" {
			return zero, queryInvalidf(`adjustment must be "auto" or an array of column names`)
		}
		q.Auto = true
	default:
		var set []string
		if err := json.Unmarshal(adj, &set); err != nil {
			return zero, queryInvalidf(`adjustment must be "auto" or an array of column names`)
		}
		if len(set) > dag.AdjustmentSearchLimit {
			return zero, queryInvalidf("adjustment set has %d members, max %d", len(set), dag.AdjustmentSearchLimit)
		}
		q.Adjustment = set
	}
	return q, nil
}

// withDefaults fills the omitted-field defaults without touching anything
// the caller set.
func (q CausalQuery) withDefaults() CausalQuery {
	if q.Graph == "" {
		q.Graph = QueryDefaultGraph
	}
	if q.Scenario == "" {
		q.Scenario = scenario.SouthAfricaID
	}
	if q.Hours == 0 {
		q.Hours = 1500
	}
	if q.Bins == 0 {
		q.Bins = 10
	}
	return q
}

// queryColumns is the measured-column vocabulary of the observational
// substrate, sorted. "hour" is measured but continuous-cyclic; it is legal
// as an adjustment variable, not as a treatment.
func queryColumns() []string { return []string{"C", "L", "R", "hour"} }

func isQueryColumn(name string) bool {
	for _, c := range queryColumns() {
		if c == name {
			return true
		}
	}
	return false
}

// QueryPlan is a compiled causal query: the parsed graph, the identified
// (or validated) adjustment set, and the identification evidence that goes
// into the result document.
type QueryPlan struct {
	// Query is the normalized question, defaults filled and adjustment
	// resolved.
	Query CausalQuery
	// Graph is the parsed planning DAG.
	Graph *dag.Graph
	// Adjustment is the conditioning set the estimators will use (sorted,
	// possibly empty).
	Adjustment []string
	// Identification is the graph analysis of Treatment → Outcome; its
	// backdoor paths and minimal sets are the evidence the result carries.
	*dag.Identification
}

// CompileCausalQuery checks a query against its DAG and the measured
// columns and resolves the adjustment set. Malformed questions (bad graph,
// unknown variables, unmeasured columns) are ErrQueryInvalid; well-formed
// questions whose effect has no observed backdoor adjustment — a latent
// confounder, or an explicit set that leaves a path open — are
// ErrNotIdentifiable.
func CompileCausalQuery(q CausalQuery) (*QueryPlan, error) {
	q = q.withDefaults()
	if q.Treatment == "" || q.Outcome == "" {
		return nil, queryInvalidf("treatment and outcome are required")
	}
	if q.Treatment == q.Outcome {
		return nil, queryInvalidf("treatment and outcome must differ")
	}
	resolved, err := scenario.ResolveID(q.Scenario)
	if err != nil {
		return nil, queryInvalidf("scenario: %v", err)
	}
	q.Scenario = resolved
	if q.Hours < QueryMinHours || q.Hours > QueryMaxHours {
		return nil, queryInvalidf("hours %d out of range [%d, %d]", q.Hours, QueryMinHours, QueryMaxHours)
	}
	if q.Bins < 1 || q.Bins > QueryMaxBins {
		return nil, queryInvalidf("bins %d out of range [1, %d]", q.Bins, QueryMaxBins)
	}
	if len(q.Graph) > 4096 {
		return nil, queryInvalidf("graph exceeds 4096 bytes")
	}
	return planQuery(q)
}

// planQuery is compilation past the served knob bounds: it checks the
// question against its graph and the measured columns, runs identification
// and resolves the adjustment set. RunConfounding enters here directly, so
// the experiment keeps accepting any horizon it always has.
func planQuery(q CausalQuery) (*QueryPlan, error) {
	g, err := dag.Parse(q.Graph)
	if err != nil {
		return nil, queryInvalidf("graph: %v", err)
	}
	if n := len(g.Nodes()); n > QueryMaxGraphNodes {
		return nil, queryInvalidf("graph has %d nodes, max %d for served queries", n, QueryMaxGraphNodes)
	}
	for _, v := range []string{q.Treatment, q.Outcome} {
		if !g.Has(v) {
			return nil, queryInvalidf("%q is not a node of the graph (nodes: %s)", v, strings.Join(g.Nodes(), ", "))
		}
		if g.IsLatent(v) {
			return nil, queryInvalidf("%q is latent in the graph; treatment and outcome must be observed", v)
		}
		if !isQueryColumn(v) {
			return nil, queryInvalidf("%q is not a measured column (columns: %s)", v, strings.Join(queryColumns(), ", "))
		}
	}
	if q.Treatment == "hour" {
		return nil, queryInvalidf("hour is not a binary treatment; treat on R or C")
	}

	// An explicit set's members are validated before identification runs, so
	// a malformed set (latent/unknown/unmeasured members) is the caller's
	// mistake even when the graph would also fail identification.
	var explicit []string
	if !q.Auto {
		explicit = append([]string(nil), q.Adjustment...)
		sort.Strings(explicit)
		explicit = dedupeStrings(explicit)
		for _, v := range explicit {
			if v == q.Treatment || v == q.Outcome {
				return nil, queryInvalidf("adjustment variable %q is the treatment or outcome", v)
			}
			if !g.Has(v) {
				return nil, queryInvalidf("adjustment variable %q is not a node of the graph (nodes: %s)", v, strings.Join(g.Nodes(), ", "))
			}
			if g.IsLatent(v) {
				return nil, queryInvalidf("adjustment variable %q is latent; only observed variables can be conditioned on", v)
			}
			if !isQueryColumn(v) {
				return nil, queryInvalidf("adjustment variable %q is not a measured column (columns: %s)", v, strings.Join(queryColumns(), ", "))
			}
		}
	}

	id := g.Identify(q.Treatment, q.Outcome)
	sets := id.AdjustmentSets
	if sets == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotIdentifiable, id.BackdoorFailure)
	}
	plan := &QueryPlan{Graph: g, Identification: id}

	if q.Auto {
		set, ok := id.MeasuredAdjustmentSet(isQueryColumn)
		if !ok {
			return nil, fmt.Errorf("%w: every minimal adjustment set %v contains an unmeasured variable (columns: %s)",
				ErrNotIdentifiable, sets, strings.Join(queryColumns(), ", "))
		}
		plan.Adjustment = append([]string(nil), set...)
	} else {
		if !g.SatisfiesBackdoor(q.Treatment, q.Outcome, explicit) {
			return nil, fmt.Errorf("%w: adjustment set %v does not satisfy the backdoor criterion for %s → %s (minimal valid sets: %v)",
				ErrNotIdentifiable, explicit, q.Treatment, q.Outcome, sets)
		}
		plan.Adjustment = explicit
	}
	q.Adjustment = append([]string(nil), plan.Adjustment...)
	plan.Query = q
	return plan, nil
}

func dedupeStrings(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// QueryIdentification is the identification evidence attached to a query
// result: what the DAG implied, and what the estimators conditioned on.
type QueryIdentification struct {
	Graph                 string
	BackdoorPaths         []string
	MinimalAdjustmentSets [][]string
	Adjustment            []string
	Auto                  bool
}

// QueryResult is the answer to a causal query: the normalized question,
// identification evidence, the estimator panel, and — because the substrate
// is simulated — the interventional ground truth when the question matches
// the running example's do(R) contrast (null otherwise).
type QueryResult struct {
	Query          CausalQuery
	Rows           int
	TreatedShare   float64
	Identification QueryIdentification
	Estimates      []estimate.Estimate
	TrueEffect     NullableFloat
}

// Render prints the estimator panel plus the identification block, same
// table idiom as every experiment.
func (r *QueryResult) Render() string {
	t := &table{header: []string{"estimator", fmt.Sprintf("effect of %s on %s", r.Query.Treatment, r.Query.Outcome), "SE", "p"}}
	for _, e := range r.Estimates {
		t.add(e.Method, fmt.Sprintf("%+.3f", e.Effect), fmt.Sprintf("%.3f", e.SE), fmt.Sprintf("%.3f", e.PValue()))
	}
	if !r.TrueEffect.IsNaN() {
		t.add("GROUND TRUTH do("+r.Query.Treatment+")", fmt.Sprintf("%+.3f", float64(r.TrueEffect)), "-", "-")
	}
	return fmt.Sprintf("Causal query: %s → %s (%d rows, treated %.0f%% of hours)\n\n%s\nIdentification:\n  graph: %s\n  backdoor paths: %v\n  minimal adjustment sets: %v\n  adjustment used: %v (auto=%v)\n",
		r.Query.Treatment, r.Query.Outcome, r.Rows, 100*r.TreatedShare, t.String(),
		r.Identification.Graph, r.Identification.BackdoorPaths, r.Identification.MinimalAdjustmentSets,
		r.Identification.Adjustment, r.Identification.Auto)
}

// RunCausalQuery compiles and executes a causal query: identification,
// then the standard Scenario → Dataset → Estimator → Report pipeline over
// the cached observational substrate. cfg.Seed is ignored — the seed rides
// in the query, which is the cache coordinate.
func RunCausalQuery(ctx context.Context, cfg Config, q CausalQuery) (*QueryResult, error) {
	plan, err := CompileCausalQuery(q)
	if err != nil {
		return nil, err
	}
	ctx = obs.Scoped(ctx, "query")
	ctx = artifact.With(ctx, cfg.Artifacts)
	return runQueryPlan(ctx, "query", cfg.Pool, plan)
}

// runQueryPlan runs a compiled plan through the pipeline stages named
// stage/{scenario,dataset,estimator,report}: fetch the substrate, frame it,
// fit the estimator panel, attach identification and ground truth.
func runQueryPlan(ctx context.Context, stage string, pool parallel.Pool, plan *QueryPlan) (*QueryResult, error) {
	q := plan.Query
	res := &QueryResult{Query: q}
	var frame *queryFrame
	var f *data.Frame
	err := stagedRun(ctx, stage, func(ctx context.Context) error {
		var err error
		frame, err = fetchQueryFrame(ctx, pool, q.Scenario, q.Seed, q.Hours)
		return err
	}, func(ctx context.Context) error {
		var err error
		f, err = data.FromColumns(map[string][]float64{
			"R": frame.R, "L": frame.L, "C": frame.C, "hour": frame.Hour,
		})
		return err
	}, func(ctx context.Context) error {
		treat := f.MustColumn(q.Treatment)
		for _, v := range treat {
			if v != 0 && v != 1 {
				return queryInvalidf("treatment %q is not binary in the dataset; treat on R", q.Treatment)
			}
		}
		res.Rows = f.Len()
		var sum float64
		for _, v := range treat {
			sum += v
		}
		res.TreatedShare = sum / float64(len(treat))

		naive, err := estimate.NaiveAssociation(f, q.Treatment, q.Outcome)
		if err != nil {
			return err
		}
		res.Estimates = append(res.Estimates, naive)
		if len(plan.Adjustment) > 0 {
			strat, err := estimate.Stratified(f, q.Treatment, q.Outcome, plan.Adjustment, q.Bins)
			if err != nil {
				return err
			}
			reg, err := estimate.Regression(f, q.Treatment, q.Outcome, plan.Adjustment)
			if err != nil {
				return err
			}
			ipw, err := estimate.IPW(f, q.Treatment, q.Outcome, plan.Adjustment, 0.01)
			if err != nil {
				return err
			}
			res.Estimates = append(res.Estimates, strat, reg, ipw)
		} else {
			// Empty valid adjustment set: the naive contrast is already
			// causal under the stated DAG; a plain regression is the only
			// extra panel member that means anything.
			reg, err := estimate.Regression(f, q.Treatment, q.Outcome, nil)
			if err != nil {
				return err
			}
			res.Estimates = append(res.Estimates, reg)
		}
		return nil
	}, func(ctx context.Context) error {
		res.Identification = QueryIdentification{
			Graph:                 q.Graph,
			BackdoorPaths:         plan.BackdoorPaths,
			MinimalAdjustmentSets: plan.AdjustmentSets,
			Adjustment:            plan.Adjustment,
			Auto:                  q.Auto,
		}
		// The simulator's interventional ground truth exists for exactly one
		// contrast: forcing the route both ways at every sampled hour. Any
		// other question gets null, not a made-up number.
		if q.Treatment == "R" && q.Outcome == "L" && frame.TrueN > 0 {
			res.TrueEffect = NullableFloat(frame.TrueSum / float64(frame.TrueN))
		} else {
			res.TrueEffect = NullableFloat(math.NaN())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// queryFrame is the cached observational substrate: the running example's
// per-hour columns plus the forced-route ground truth.
type queryFrame struct {
	R, L, C, Hour []float64
	AltShare      float64
	TrueSum       float64
	TrueN         int
}

const kindQueryFrame = "qframe"

// fetchQueryFrame returns a caller-owned observational frame for
// ⟨scenario, seed, hours⟩ through the context's artifact store
// (singleflight: concurrent identical queries share one simulation). The
// scenario id sits in the key's scenario coordinate, so the
// default-world key hashes exactly as it did when the coordinate was
// hard-coded. Both the confounding experiment and /query read through here.
func fetchQueryFrame(ctx context.Context, pool parallel.Pool, scenarioID string, seed uint64, hours int) (*queryFrame, error) {
	key, err := artifact.NewKey(kindQueryFrame, scenarioID, seed, struct{ Hours int }{hours})
	if err != nil {
		return nil, err
	}
	return artifact.GetOrBuild(ctx, artifact.From(ctx), key, artifact.Spec[*queryFrame]{
		Build: func(ctx context.Context) (*queryFrame, error) {
			return confoundingScenario(ctx, pool, scenarioID, seed, hours)
		},
		Fork: (*queryFrame).fork,
		Size: (*queryFrame).sizeBytes,
	})
}

// fork deep-copies: the frame has no Freeze hook, so the stored original
// must share nothing mutable with what callers get.
func (q *queryFrame) fork() *queryFrame {
	cp := *q
	cp.R = append([]float64(nil), q.R...)
	cp.L = append([]float64(nil), q.L...)
	cp.C = append([]float64(nil), q.C...)
	cp.Hour = append([]float64(nil), q.Hour...)
	return &cp
}

func (q *queryFrame) sizeBytes() int64 {
	return int64(8*(len(q.R)+len(q.L)+len(q.C)+len(q.Hour))) + 64
}
