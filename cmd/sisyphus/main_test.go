package main

import "testing"

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name       string
		workersSet bool
		workers    int
		parallel   bool
		sweep      bool
		wantErr    bool
	}{
		{"defaults", false, 0, false, false, false},
		{"parallel without workers", false, 0, true, false, false},
		{"workers with parallel", true, 8, true, false, false},
		{"workers zero with parallel", true, 0, true, false, false},
		{"workers with sweep", true, 4, false, true, false},
		{"workers without parallel or sweep", true, 8, false, false, true},
		{"negative workers", true, -1, true, false, true},
		{"negative workers without parallel", true, -3, false, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.workersSet, c.workers, c.parallel, c.sweep)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateFlags(%v, %d, %v, %v) error = %v, wantErr %v",
					c.workersSet, c.workers, c.parallel, c.sweep, err, c.wantErr)
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

func TestValidateCacheFlag(t *testing.T) {
	cases := []struct {
		cache   string
		wantErr bool
	}{
		{"on", false},
		{"off", false},
		{"", true},
		{"of", true},
		{"ON", true},
		{"true", true},
		{"0", true},
	}
	for _, c := range cases {
		t.Run(c.cache, func(t *testing.T) {
			err := validateCacheFlag(c.cache)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateCacheFlag(%q) error = %v, wantErr %v", c.cache, err, c.wantErr)
			}
		})
	}
}

func TestValidateCacheDirFlag(t *testing.T) {
	cases := []struct {
		name     string
		cacheDir string
		cache    string
		runs     bool
		wantErr  bool
	}{
		{"no dir no run", "", "on", false, false},
		{"no dir cache off", "", "off", true, false},
		{"dir with run", "/tmp/c", "on", true, false},
		{"dir without run", "/tmp/c", "on", false, true},
		{"dir with cache off", "/tmp/c", "off", true, true},
		{"dir with cache off and no run", "/tmp/c", "off", false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateCacheDirFlag(c.cacheDir, c.cache, c.runs)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateCacheDirFlag(%q, %q, %v) error = %v, wantErr %v",
					c.cacheDir, c.cache, c.runs, err, c.wantErr)
			}
		})
	}
}
