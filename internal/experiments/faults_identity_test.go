package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"sisyphus/internal/faults"
	"sisyphus/internal/parallel"
)

// TestFaultRateZeroBitIdentity is the property the whole faults layer is
// built around: running the full Table 1 pipeline with a zero-rate fault
// config and a retry policy set must render byte-for-byte the same table as
// running with no fault config at all.
func TestFaultRateZeroBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full E1 runs")
	}
	ctx := context.Background()
	plain := experimentsTable1Config()
	bare, err := RunTable1(ctx, parallel.Pool{}, plain)
	if err != nil {
		t.Fatal(err)
	}

	zeroed := plain
	zeroed.Faults = &faults.Config{Seed: 777} // every rate zero
	zeroed.Retry = faults.RetryPolicy{MaxAttempts: 4}
	hooked, err := RunTable1(ctx, parallel.Pool{}, zeroed)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := bare.Render(), hooked.Render(); a != b {
		t.Fatalf("zero-rate faults changed the rendered table:\n--- no faults ---\n%s\n--- zero-rate ---\n%s", a, b)
	}
	if !reflect.DeepEqual(bare.Rows, hooked.Rows) {
		t.Fatal("zero-rate faults changed Table 1 rows")
	}
	if !reflect.DeepEqual(bare.Coverage, hooked.Coverage) {
		t.Fatalf("coverage counters differ: %+v vs %+v", bare.Coverage, hooked.Coverage)
	}
}

// TestChaosSweepDegradesGracefully is E15's smoke test on a reduced grid:
// faults must show up in the coverage accounting, and the pipeline must
// produce a row — never an error — at every intensity.
func TestChaosSweepDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns Table 1 per intensity level")
	}
	o := chaosDefaults
	o.Intensities = []float64{0, 0.4}
	res, err := RunChaos(context.Background(), parallel.Pool{}, 11, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 2 {
		t.Fatalf("levels = %d", len(res.Levels))
	}
	clean, faulty := res.Levels[0], res.Levels[1]
	if clean.Coverage != 1 || clean.Failed != 0 || clean.Truncated != 0 || clean.Duplicated != 0 {
		t.Fatalf("fault-free level shows faults: %+v", clean)
	}
	if clean.Estimated == 0 {
		t.Fatal("fault-free level estimated nothing")
	}
	if faulty.Coverage >= clean.Coverage {
		t.Fatalf("coverage did not degrade: %v -> %v", clean.Coverage, faulty.Coverage)
	}
	if faulty.Failed == 0 || faulty.Truncated == 0 {
		t.Fatalf("intensity 0.4 injected no faults: %+v", faulty)
	}
	if faulty.Scheduled != faulty.Delivered+faulty.Failed {
		t.Fatalf("coverage identity broken: %+v", faulty)
	}
	if faulty.Estimated+faulty.Collapsed == 0 {
		t.Fatal("no units accounted for at intensity 0.4")
	}
	// The render must succeed and mention every intensity.
	out := res.Render()
	if !bytes.Contains([]byte(out), []byte("0.40")) {
		t.Fatalf("render missing intensity row:\n%s", out)
	}
}

func TestNullableFloatJSON(t *testing.T) {
	cases := []struct {
		name string
		v    float64
		want string
	}{
		{"finite", 3.25, "3.25"},
		{"zero", 0, "0"},
		{"negative", -1.5, "-1.5"},
		{"nan", math.NaN(), "null"},
		{"+inf", math.Inf(1), "null"},
		{"-inf", math.Inf(-1), "null"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, err := json.Marshal(NullableFloat(c.v))
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != c.want {
				t.Fatalf("marshal(%v) = %s, want %s", c.v, b, c.want)
			}
			var back NullableFloat
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if c.want == "null" {
				if !back.IsNaN() {
					t.Fatalf("null did not round-trip to NaN: %v", back)
				}
			} else if float64(back) != c.v {
				t.Fatalf("round-trip %v -> %v", c.v, back)
			}
		})
	}
}

// TestRootCauseJSONRegression pins the seed bug this PR fixes: rootcause (and
// any experiment with NaN-able fields) must marshal successfully — NaN cells
// become JSON null — instead of failing the whole -all -json run.
func TestRootCauseJSONRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("full rootcause run")
	}
	e, err := Get("rootcause")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("rootcause result does not marshal: %v", err)
	}
	var decoded any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("rootcause JSON does not parse back: %v", err)
	}
}

// TestTable1JSONWithTruth covers the second NaN field (TrueDelta is NaN for
// units that never cross the IXP) plus the func-valued Build field, both of
// which used to sink `-all -json`.
func TestTable1JSONWithTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("full E1 run")
	}
	cfg := experimentsTable1Config()
	cfg.WithTruth = true
	res, err := RunTable1(context.Background(), parallel.Pool{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("Table 1 result does not marshal: %v", err)
	}
	if bytes.Contains(b, []byte("NaN")) {
		t.Fatal("raw NaN leaked into JSON output")
	}
}
