package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"sisyphus/internal/artifact"
	"sisyphus/internal/parallel"
)

// TestDecodeCausalQuery tables the wire decode: defaults, the adjustment
// forms, and every strictness rejection.
func TestDecodeCausalQuery(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		q, err := DecodeCausalQuery([]byte(`{"treatment":"R","outcome":"L"}`))
		if err != nil {
			t.Fatal(err)
		}
		if !q.Auto || q.Adjustment != nil {
			t.Errorf("omitted adjustment: Auto=%v Adjustment=%v, want auto", q.Auto, q.Adjustment)
		}
		if q.Seed != 42 {
			t.Errorf("Seed = %d, want default 42", q.Seed)
		}
	})
	t.Run("explicit fields", func(t *testing.T) {
		q, err := DecodeCausalQuery([]byte(`{"treatment":"R","outcome":"L","adjustment":["C","hour"],"seed":0,"hours":500,"bins":5,"graph":"C -> R; R -> L; C -> L","scenario":"southafrica"}`))
		if err != nil {
			t.Fatal(err)
		}
		if q.Auto || !reflect.DeepEqual(q.Adjustment, []string{"C", "hour"}) {
			t.Errorf("Adjustment = %v (auto=%v)", q.Adjustment, q.Auto)
		}
		if q.Seed != 0 || q.Hours != 500 || q.Bins != 5 {
			t.Errorf("knobs drifted: %+v", q)
		}
	})
	t.Run("auto string", func(t *testing.T) {
		q, err := DecodeCausalQuery([]byte(`{"treatment":"R","outcome":"L","adjustment":"auto"}`))
		if err != nil || !q.Auto {
			t.Fatalf("adjustment \"auto\": q=%+v err=%v", q, err)
		}
	})
	rejects := []struct{ name, body string }{
		{"empty", ""},
		{"not json", "noise"},
		{"unknown field", `{"treatment":"R","outcome":"L","extra":1}`},
		{"trailing document", `{"treatment":"R","outcome":"L"}{}`},
		{"negative seed", `{"treatment":"R","outcome":"L","seed":-3}`},
		{"overflow seed", `{"treatment":"R","outcome":"L","seed":18446744073709551616}`},
		{"float seed", `{"treatment":"R","outcome":"L","seed":1.5}`},
		{"bad adjustment scalar", `{"treatment":"R","outcome":"L","adjustment":3}`},
		{"bad adjustment string", `{"treatment":"R","outcome":"L","adjustment":"none"}`},
		{"oversize", `{"graph":"` + strings.Repeat("x", QueryMaxBodyBytes) + `"}`},
	}
	for _, tc := range rejects {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeCausalQuery([]byte(tc.body)); !errors.Is(err, ErrQueryInvalid) {
				t.Errorf("err = %v, want ErrQueryInvalid", err)
			}
		})
	}
}

// TestCompileCausalQuery pins identification behavior: the default graph
// identifies through C, explicit sets are checked against the backdoor
// criterion, and the two failure classes stay distinct (invalid vs not
// identifiable).
func TestCompileCausalQuery(t *testing.T) {
	t.Run("auto identifies C", func(t *testing.T) {
		plan, err := CompileCausalQuery(CausalQuery{Treatment: "R", Outcome: "L", Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan.Adjustment, []string{"C"}) {
			t.Errorf("Adjustment = %v, want [C]", plan.Adjustment)
		}
		if len(plan.BackdoorPaths) == 0 {
			t.Error("no backdoor paths recorded for the confounded graph")
		}
		if plan.Query.Graph != QueryDefaultGraph || plan.Query.Hours != 1500 || plan.Query.Bins != 10 {
			t.Errorf("defaults not normalized into the plan: %+v", plan.Query)
		}
	})
	t.Run("explicit valid set", func(t *testing.T) {
		plan, err := CompileCausalQuery(CausalQuery{Treatment: "R", Outcome: "L", Adjustment: []string{"C", "C"}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan.Adjustment, []string{"C"}) {
			t.Errorf("Adjustment = %v, want deduped [C]", plan.Adjustment)
		}
	})
	t.Run("empty set leaves backdoor open", func(t *testing.T) {
		_, err := CompileCausalQuery(CausalQuery{Treatment: "R", Outcome: "L", Adjustment: []string{}})
		if !errors.Is(err, ErrNotIdentifiable) {
			t.Errorf("err = %v, want ErrNotIdentifiable", err)
		}
	})
	t.Run("latent confounder not identifiable", func(t *testing.T) {
		_, err := CompileCausalQuery(CausalQuery{
			Graph: "U [latent]; U -> R; U -> L; R -> L", Treatment: "R", Outcome: "L", Auto: true,
		})
		if !errors.Is(err, ErrNotIdentifiable) {
			t.Errorf("err = %v, want ErrNotIdentifiable", err)
		}
	})
	t.Run("no confounding needs empty set", func(t *testing.T) {
		plan, err := CompileCausalQuery(CausalQuery{Graph: "R -> L; R -> C", Treatment: "R", Outcome: "L", Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Adjustment) != 0 {
			t.Errorf("Adjustment = %v, want empty", plan.Adjustment)
		}
	})
	invalids := []CausalQuery{
		{Treatment: "", Outcome: "L", Auto: true},
		{Treatment: "R", Outcome: "R", Auto: true},
		{Treatment: "Z", Outcome: "L", Auto: true},
		{Treatment: "hour", Outcome: "L", Auto: true},
		{Treatment: "R", Outcome: "L", Auto: true, Scenario: "atlantis"},
		{Treatment: "R", Outcome: "L", Auto: true, Hours: 1},
		{Treatment: "R", Outcome: "L", Auto: true, Bins: -2},
		{Treatment: "R", Outcome: "L", Auto: true, Graph: "R -> L; L -> R"},
		{Treatment: "R", Outcome: "L", Adjustment: []string{"L"}},
		{Treatment: "R", Outcome: "L", Adjustment: []string{"Q"}},
		{Treatment: "R", Outcome: "L", Auto: true,
			Graph: "A -> B; B -> C2; C2 -> D; D -> E; E -> F; F -> G; G -> H; H -> R; R -> L"},
	}
	for _, q := range invalids {
		if _, err := CompileCausalQuery(q); !errors.Is(err, ErrQueryInvalid) {
			t.Errorf("query %+v: err = %v, want ErrQueryInvalid", q, err)
		}
	}
}

// TestRunCausalQueryDeterministicAcrossCache runs one small query through a
// caller's store and through the private store a nil one becomes, and
// requires byte-identical JSON documents — the same identity contract
// every experiment is held to — and
// sanity-checks the answer: with C adjusted, the estimate should land
// nearer the simulator's ground truth than the naive contrast.
func TestRunCausalQueryDeterministicAcrossCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	q := CausalQuery{Treatment: "R", Outcome: "L", Auto: true, Hours: 200, Seed: 5}
	run := func(store *artifact.Store) *QueryResult {
		t.Helper()
		res, err := RunCausalQuery(context.Background(), Config{Pool: parallel.Pool{}, Artifacts: store}, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cached := run(artifact.NewStore())
	private := run(nil)
	enc := func(r *QueryResult) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(enc(cached), enc(private)) {
		t.Error("shared-store and private-store query runs produced different documents")
	}

	if cached.Rows != 200 {
		t.Errorf("Rows = %d, want 200", cached.Rows)
	}
	if cached.TrueEffect.IsNaN() {
		t.Fatal("TrueEffect missing for the do(R) contrast")
	}
	truth := float64(cached.TrueEffect)
	naive, adjusted := cached.Estimates[0].Effect, cached.Estimates[2].Effect
	if abs(adjusted-truth) > abs(naive-truth) {
		t.Logf("note: adjusted estimate %.3f farther from truth %.3f than naive %.3f at this short horizon",
			adjusted, truth, naive)
	}
	if cached.Render() == "" {
		t.Error("Render returned empty text")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestRunCausalQueryEmptyAdjustment runs a no-confounding graph end to end:
// the panel shrinks to naive + regression, and no ground truth is invented
// for a contrast the simulator cannot force (C as treatment).
func TestRunCausalQueryEmptyAdjustment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	res, err := RunCausalQuery(context.Background(), Config{Pool: parallel.Pool{}},
		CausalQuery{Graph: "R -> L; R -> C", Treatment: "R", Outcome: "L", Auto: true, Hours: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 2 {
		t.Errorf("panel has %d members, want 2 (naive, regression)", len(res.Estimates))
	}
	if res.TrueEffect.IsNaN() {
		t.Error("R → L keeps its ground truth even under a different stated DAG")
	}
}

// TestRunCausalQueryNonBinaryTreatment: C is a measured column and a legal
// graph node, but it is continuous — the estimator stage must refuse it as
// a treatment with a typed error, not fabricate a contrast.
func TestRunCausalQueryNonBinaryTreatment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	_, err := RunCausalQuery(context.Background(), Config{Pool: parallel.Pool{}},
		CausalQuery{Graph: "C -> L; C -> R", Treatment: "C", Outcome: "L", Auto: true, Hours: 150, Seed: 2})
	if !errors.Is(err, ErrQueryInvalid) {
		t.Errorf("err = %v, want ErrQueryInvalid (non-binary treatment)", err)
	}
}

// TestConfoundingIsDefaultQuery: the confounding experiment is the default
// causal query R → L under its own horizon. On one store the two share a
// single qframe build, report the same panel, truth and route share, and
// the experiment still accepts horizons below the served query floor.
func TestConfoundingIsDefaultQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 1500 hours")
	}
	store := artifact.NewStore()
	cfg := Config{Seed: 7, Pool: parallel.Pool{}, Artifacts: store, Opts: WorldOptions{Hours: 1500}}
	e, err := Get("confounding")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	conf := res.(*ConfoundingResult)
	qr, err := RunCausalQuery(context.Background(), cfg, CausalQuery{Treatment: "R", Outcome: "L", Auto: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	var frames []artifact.KeyStats
	for key, ks := range store.PerKey() {
		if key.Kind == kindQueryFrame {
			frames = append(frames, ks)
		}
	}
	if len(frames) != 1 || frames[0].Builds != 1 || frames[0].Hits < 1 {
		t.Errorf("qframe stats %+v: want one key, built once and hit at least once", frames)
	}

	panel := []any{conf.Naive, conf.Stratified, conf.Regression, conf.IPW, conf.TrueEffect, conf.RouteShare}
	want := []any{qr.Estimates[0], qr.Estimates[1], qr.Estimates[2], qr.Estimates[3], float64(qr.TrueEffect), qr.TreatedShare}
	if !reflect.DeepEqual(panel, want) {
		t.Errorf("confounding panel differs from the default query:\n got %+v\nwant %+v", panel, want)
	}

	short := cfg
	short.Artifacts, short.Opts = nil, WorldOptions{Hours: 50}
	if _, err := e.Run(context.Background(), short); err != nil {
		t.Errorf("confounding at 50 hours (below the served query floor): %v", err)
	}
}
