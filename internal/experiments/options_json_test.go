package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sisyphus/internal/parallel"
)

// TestOptionsFromJSONRoundTrip pins the decode path against every
// registered experiment: the marshaled defaults must decode back equal, so
// a client can GET an options shape, edit one knob, and send it back.
func TestOptionsFromJSONRoundTrip(t *testing.T) {
	for _, e := range All() {
		if e.Defaults == nil {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			raw, err := json.Marshal(e.Defaults)
			if err != nil {
				t.Fatal(err)
			}
			got, err := OptionsFromJSON(e.ID, raw)
			if err != nil {
				t.Fatalf("decoding marshaled defaults: %v", err)
			}
			if !reflect.DeepEqual(got, e.Defaults) {
				t.Errorf("round trip drifted: got %+v, want %+v", got, e.Defaults)
			}
		})
	}
}

// TestOptionsFromJSONPartial checks that an options document only needs the
// knobs it turns: omitted fields keep the registered defaults.
func TestOptionsFromJSONPartial(t *testing.T) {
	got, err := OptionsFromJSON("confounding", []byte(`{"Hours": 123}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.(WorldOptions).Hours != 123 {
		t.Errorf("Hours = %d, want 123", got.(WorldOptions).Hours)
	}

	// table1 has many fields; setting one must leave the rest at defaults.
	def, err := Get("table1")
	if err != nil {
		t.Fatal(err)
	}
	got, err = OptionsFromJSON("table1", []byte(`{"Weeks": 9}`))
	if err != nil {
		t.Fatal(err)
	}
	want := def.Defaults.(Table1Config)
	want.Weeks = 9
	if !reflect.DeepEqual(got, want) {
		t.Errorf("partial decode drifted from defaults: got %+v, want %+v", got, want)
	}
}

// TestOptionsFromJSONErrors tables the strictness contract.
func TestOptionsFromJSONErrors(t *testing.T) {
	cases := []struct {
		name, id, raw, contains string
	}{
		{"unknown experiment", "nope", `{}`, "unknown experiment"},
		{"unknown field", "confounding", `{"Bogus": 1}`, "Bogus"},
		{"wrong type", "confounding", `{"Hours": "ten"}`, "Hours"},
		{"trailing data", "confounding", `{} {}`, "trailing data"},
		{"array not object", "confounding", `[1,2]`, "confounding options"},
		{"options on optionless", "tromboneera", `{"Hours": 5}`, "takes no options"},
		{"scenario field is unreachable", "table1", `{"Scenario": "x"}`, "Scenario"},
		{"power trials zero", "power", `{"Trials": 0}`, "Trials"},
		{"power trials negative", "power", `{"Trials": -5}`, "Trials"},
		{"power trials over cap", "power", `{"Trials": 100000000}`, "Trials"},
		{"world hours over cap", "confounding", `{"Hours": 1000000000}`, "Hours"},
		{"world hours one past cap", "instrument", `{"Hours": 8761}`, "8760"},
		{"horizon hours over cap", "collider", `{"Hours": 1000000000}`, "Hours"},
		{"world hours under floor", "instrument", `{"Hours": 50}`, "100-hour floor"},
		{"world hours one under floor", "mlab", `{"Hours": 99}`, "100-hour floor"},
		{"cellular sessions under floor", "cellular", `{"N": 10}`, "cellular N"},
		{"table1 weeks over cap", "table1", `{"Weeks": 1000000}`, "Weeks"},
		{"chaos weeks over cap", "chaos", `{"Weeks": 53}`, "Weeks"},
		{"cellular sessions over cap", "cellular", `{"N": 1000000000}`, "cellular N"},
		{"table1 user rate over cap", "table1", `{"UserRate": 1000000}`, "UserRate"},
		{"table1 bins too narrow", "table1", `{"BinHours": 0.0001}`, "BinHours"},
		{"table1 bins too wide", "table1", `{"BinHours": 10000}`, "BinHours"},
		{"table1 flaps too frequent", "table1", `{"FlapEveryHours": 0.0001, "FlapLink": 3}`, "FlapEveryHours"},
		{"chaos levels over cap", "chaos", `{"Intensities": [0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.8]}`, "Intensities"},
		{"table1 retry attempts over cap", "table1", `{"Faults": {"Seed": 1, "DropRate": 1}, "Retry": {"MaxAttempts": 2000000000}}`, "MaxAttempts"},
		{"table1 retry attempts negative", "table1", `{"Retry": {"MaxAttempts": -1}}`, "MaxAttempts"},
		{"table1 drop rate over one", "table1", `{"Faults": {"Seed": 1, "DropRate": 1.5}}`, "DropRate"},
		{"table1 truncate rate negative", "table1", `{"Faults": {"TruncateRate": -0.1}}`, "TruncateRate"},
		{"table1 duplicate rate over one", "table1", `{"Faults": {"DuplicateRate": 2}}`, "DuplicateRate"},
		{"table1 reorder rate over one", "table1", `{"Faults": {"ReorderRate": 1.01}}`, "ReorderRate"},
		{"table1 skew over cap", "table1", `{"Faults": {"TimestampSkewStdHours": 1e9}}`, "TimestampSkewStdHours"},
		{"table1 outage rate over cap", "table1", `{"Faults": {"Seed": 1, "OutagesPerKiloHour": 1e15, "OutageMeanHours": 1e-15}}`, "OutagesPerKiloHour"},
		{"table1 outage mean under floor", "table1", `{"Faults": {"OutagesPerKiloHour": 10, "OutageMeanHours": 1e-15}}`, "OutageMeanHours"},
		{"table1 outage mean negative", "table1", `{"Faults": {"OutagesPerKiloHour": 10, "OutageMeanHours": -5}}`, "OutageMeanHours"},
		{"did takes no fault knobs", "did", `{"Faults": {"DropRate": 0.5}}`, "Faults"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := OptionsFromJSON(tc.id, []byte(tc.raw))
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), tc.contains) {
				t.Errorf("error %q does not mention %q", err, tc.contains)
			}
		})
	}
	// Each cap itself is accepted.
	for _, tc := range []struct{ id, raw string }{
		{"confounding", `{"Hours": 8760}`},
		{"familyknob", `{"Hours": 100}`},
		{"cellular", `{"N": 100}`},
		{"collider", `{"Hours": 8760}`},
		{"table1", `{"Weeks": 52}`},
		{"cellular", `{"N": 1000000}`},
		{"table1", `{"UserRate": 4, "BinHours": 48, "FlapEveryHours": 12}`},
		{"table1", `{"BinHours": 1}`},
		{"chaos", `{"Weeks": 52, "Intensities": [0,0.1,0.2,0.3,0.4,0.5,0.6,0.7]}`},
		{"table1", `{"Faults": {"DropRate": 1, "TruncateRate": 1, "DuplicateRate": 1, "ReorderRate": 1, "TimestampSkewStdHours": 24, "OutagesPerKiloHour": 100, "OutageMeanHours": 1}, "Retry": {"MaxAttempts": 8}}`},
	} {
		if _, err := OptionsFromJSON(tc.id, []byte(tc.raw)); err != nil {
			t.Errorf("%s %s at the cap: %v", tc.id, tc.raw, err)
		}
	}
	// Library callers get the decoder's refusal, before any trial runs.
	for _, trials := range []int{0, -5, maxPowerTrials + 1} {
		if _, err := RunPower(context.Background(), parallel.Pool{}, 1, trials); err == nil || !strings.Contains(err.Error(), "Trials") {
			t.Errorf("RunPower with %d trials: err = %v, want the Trials bound", trials, err)
		}
	}
}

// TestOptionsFromJSONEmpty: an absent or null document means "registered
// defaults" — including for experiments that take no options at all.
func TestOptionsFromJSONEmpty(t *testing.T) {
	for _, raw := range []string{"", "  ", "null"} {
		got, err := OptionsFromJSON("confounding", []byte(raw))
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		if !reflect.DeepEqual(got, registry["confounding"].Defaults) {
			t.Errorf("%q: got %+v, want registered defaults", raw, got)
		}
		if got, err := OptionsFromJSON("tromboneera", []byte(raw)); err != nil || got != nil {
			t.Errorf("%q on optionless experiment: got (%v, %v), want (nil, nil)", raw, got, err)
		}
	}
}

// TestOptionsWithScenario pins the shared retargeting helper the CLI's
// -scenario flag and the server's ?scenario= parameter both ride.
func TestOptionsWithScenario(t *testing.T) {
	o, err := OptionsWithScenario(registry["table1"].Defaults, "gen/abc")
	if err != nil {
		t.Fatal(err)
	}
	if o.(Table1Config).Scenario != "gen/abc" {
		t.Errorf("table1 scenario = %q, want gen/abc", o.(Table1Config).Scenario)
	}
	o, err = OptionsWithScenario(registry["chaos"].Defaults, "trombone")
	if err != nil {
		t.Fatal(err)
	}
	if o.(ChaosOptions).Scenario != "trombone" {
		t.Errorf("chaos scenario = %q, want trombone", o.(ChaosOptions).Scenario)
	}
	if _, err := OptionsWithScenario(HorizonOptions{}, "southafrica"); err == nil ||
		!strings.Contains(err.Error(), "scenario-capable") {
		t.Errorf("non-capable options: err = %v, want the scenario-capable list", err)
	}
}
