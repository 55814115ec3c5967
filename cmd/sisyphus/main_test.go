package main

import "testing"

// TestValidateFlags: only a negative -workers is refused. Each case names
// the command line it stands for; -workers sizes the pool of every run
// mode, so it is valid with -all, -sweep and -experiment alike.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		wantErr bool
	}{
		{"defaults", 0, false},                          // sisyphus -all
		{"workers with all", 8, false},                  // sisyphus -all -workers 8
		{"workers one with all", 1, false},              // sisyphus -all -workers 1: the sequential run
		{"workers with sweep", 4, false},                // sisyphus -sweep -workers 4 ...
		{"workers without parallel or sweep", 8, false}, // sisyphus -experiment mlab -workers 8
		{"negative workers", -1, true},
		{"negative workers without parallel", -3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := validateFlags(c.workers); (err != nil) != c.wantErr {
				t.Fatalf("validateFlags(%d) error = %v, wantErr %v", c.workers, err, c.wantErr)
			}
		})
	}
}

func TestParseSeeds(t *testing.T) {
	cases := []struct {
		spec    string
		want    []uint64
		wantErr bool
	}{
		{spec: "7", want: []uint64{7}},
		{spec: "1,2,5", want: []uint64{1, 2, 5}},
		{spec: "1..4", want: []uint64{1, 2, 3, 4}},
		{spec: "1..4,10", want: []uint64{1, 2, 3, 4, 10}},
		{spec: "3..3", want: []uint64{3}},
		{spec: " 1 , 2 ", want: []uint64{1, 2}},
		{spec: "5,5", want: []uint64{5, 5}}, // duplicates kept: repeated cells
		{spec: "", wantErr: true},
		{spec: ",", wantErr: true},
		{spec: "x", wantErr: true},
		{spec: "1..", wantErr: true},
		{spec: "..4", wantErr: true},
		{spec: "4..1", wantErr: true},
		{spec: "1..x", wantErr: true},
		{spec: "1...4", wantErr: true},
		{spec: "-1", wantErr: true},
		{spec: "1..2000000000", wantErr: true}, // over the seed cap
		{spec: "18446744073709551615..18446744073709551615", want: []uint64{18446744073709551615}},
		{spec: "0..18446744073709551615", wantErr: true}, // span+1 wraps to 0
	}
	for _, c := range cases {
		t.Run(c.spec, func(t *testing.T) {
			got, err := parseSeeds(c.spec)
			if (err != nil) != c.wantErr {
				t.Fatalf("parseSeeds(%q) error = %v, wantErr %v", c.spec, err, c.wantErr)
			}
			if err != nil {
				return
			}
			if len(got) != len(c.want) {
				t.Fatalf("parseSeeds(%q) = %v, want %v", c.spec, got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("parseSeeds(%q) = %v, want %v", c.spec, got, c.want)
				}
			}
		})
	}
}

func TestValidateSweepFlags(t *testing.T) {
	cases := []struct {
		name    string
		f       sweepFlags
		all     bool
		exp     string
		wantErr bool
	}{
		{name: "no sweep flags at all"},
		{name: "sweep with seeds", f: sweepFlags{sweep: true, seeds: "1..4"}},
		{name: "sweep with everything", f: sweepFlags{sweep: true, seeds: "1,2", expsSet: true, scenesSet: true, cellTimeout: 1}},
		{name: "sweep without seeds", f: sweepFlags{sweep: true}, wantErr: true},
		{name: "sweep with -all", f: sweepFlags{sweep: true, seeds: "1"}, all: true, wantErr: true},
		{name: "sweep with -experiment", f: sweepFlags{sweep: true, seeds: "1"}, exp: "table1", wantErr: true},
		{name: "sweep with -scenario", f: sweepFlags{sweep: true, seeds: "1", scenario: "tromboneera"}, wantErr: true},
		{name: "seeds without sweep", f: sweepFlags{seeds: "1..4"}, wantErr: true},
		{name: "experiments without sweep", f: sweepFlags{expsSet: true}, wantErr: true},
		{name: "scenarios without sweep", f: sweepFlags{scenesSet: true}, wantErr: true},
		{name: "cell-timeout without sweep", f: sweepFlags{cellTimeout: 1}, wantErr: true},
		{name: "negative cell-timeout", f: sweepFlags{sweep: true, seeds: "1", cellTimeout: -1}, wantErr: true},
		{name: "scenario with experiment", f: sweepFlags{scenario: "tromboneera"}, exp: "table1"},
		{name: "scenario without experiment", f: sweepFlags{scenario: "tromboneera"}, wantErr: true},
		{name: "scenario with -all only", f: sweepFlags{scenario: "tromboneera"}, all: true, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateSweepFlags(c.f, c.all, c.exp)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateSweepFlags(%+v, %v, %q) error = %v, wantErr %v",
					c.f, c.all, c.exp, err, c.wantErr)
			}
		})
	}
}
