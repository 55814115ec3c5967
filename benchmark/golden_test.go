package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"sisyphus/internal/experiments"
)

func fakeExps(ids ...string) []experiments.Experiment {
	var out []experiments.Experiment
	for _, id := range ids {
		out = append(out, experiments.Experiment{ID: id, Paper: "paper " + id})
	}
	return out
}

func TestSplitGoldenTilesTheOutput(t *testing.T) {
	exps := fakeExps("a", "b", "c")
	raw := exps[0].Header() + "alpha\n\n" + exps[1].Header() + "beta\n" + exps[2].Header() + "gamma\n"
	got, err := splitGolden([]byte(raw), exps)
	if err != nil {
		t.Fatal(err)
	}
	var joined string
	for _, e := range exps {
		joined += string(got[e.ID])
	}
	if joined != raw {
		t.Fatalf("sections do not tile the output:\n%q", joined)
	}
	if want := exps[1].Header() + "beta\n"; string(got["b"]) != want {
		t.Errorf("section b = %q, want %q", got["b"], want)
	}
}

func TestSplitGoldenRejectsMalformedOutput(t *testing.T) {
	exps := fakeExps("a", "b")
	a, b := exps[0].Header(), exps[1].Header()
	for name, raw := range map[string]string{
		"missing section":    a + "alpha\n",
		"wrong order":        b + "beta\n" + a + "alpha\n",
		"leading junk":       "junk\n" + a + "alpha\n" + b + "beta\n",
		"duplicated section": a + "alpha\n" + a + "again\n" + b + "beta\n",
	} {
		if _, err := splitGolden([]byte(raw), exps); err == nil {
			t.Errorf("%s: split succeeded", name)
		}
	}
}

// TestProgramGoldensSplit splits the program's committed seed-42 goldens
// the way the suite and serve checks do: one section per registered
// experiment, and every JSON section a single JSON document.
func TestProgramGoldensSplit(t *testing.T) {
	exps := experiments.All()
	for _, rel := range []string{textGolden, jsonGolden} {
		sections, err := loadGolden("..", rel, exps)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for id := range sections {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		if !reflect.DeepEqual(ids, experiments.IDs()) {
			t.Fatalf("%s: sections %v, want %v", rel, ids, experiments.IDs())
		}
		if rel == jsonGolden {
			for _, e := range exps {
				if doc := sections[e.ID][len(e.Header()):]; !json.Valid(doc) {
					t.Errorf("%s: %s section is not one JSON document", rel, e.ID)
				}
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json's metric lists to
// what the benchmark emits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	if len(spec.PerLayer) != len(catalogue) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(spec.PerLayer), len(catalogue))
	}
	for i := range spec.PerLayer {
		got, want := spec.PerLayer[i], layerMetric{}
		if i < len(catalogue) {
			want = catalogue[i]
		}
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
			t.Errorf("per_layer[%d] = %s (%s, %s), catalogue has %s (%s, %s)", i,
				got.Name, got.Unit, got.Better, want.name, want.unit, want.better)
		}
	}
	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
	}
	want := map[string]string{
		"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
		"latency_p99_ms": "ms", "cpu_s": "s", "peak_rss_mb": "MB",
	}
	if !reflect.DeepEqual(units, want) {
		t.Errorf("end_to_end metrics %v, want %v", units, want)
	}
}
