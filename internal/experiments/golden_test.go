package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"sisyphus/internal/parallel"
)

// goldenSuite runs the full seed-42 suite exactly once, on one worker with
// no recorder, and shares the outcomes between the text and JSON golden
// checks and the recorder-identity test. Given no store, RunAll shares one
// across the suite, as the CLI does.
var goldenSuite = sync.OnceValues(func() ([]RunOutcome, error) {
	return RunAll(context.Background(), Config{Seed: 42, Pool: parallel.NewPool(1)})
})

// reconstructs the CLI's `-all` byte stream from suite outcomes: section
// header, rendered table, and the blank line fmt.Println appends.
func suiteText(t *testing.T, outs []RunOutcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, oc := range outs {
		if oc.Err != nil {
			t.Fatalf("%s: %v", oc.Exp.ID, oc.Err)
		}
		buf.WriteString(oc.Exp.Header())
		buf.WriteString(oc.Res.Render())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestSuiteTextMatchesGolden pins the refactor's headline acceptance
// criterion: the context-propagated pipeline must render every experiment
// byte-for-byte identically to the pre-refactor seed output captured in
// testdata/all_seed42.golden.txt (the same bytes `sisyphus -all -seed 42`
// prints).
func TestSuiteTextMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	want, err := os.ReadFile("testdata/all_seed42.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := goldenSuite()
	if err != nil {
		t.Fatal(err)
	}
	got := suiteText(t, outs)
	if !bytes.Equal(got, want) {
		t.Fatalf("suite text output drifted from golden (%d bytes vs %d); regenerate only if the change is intentional", len(got), len(want))
	}
}

// TestSuiteJSONMatchesGolden is the same pin for `-all -json -seed 42`:
// headers interleaved with indented JSON documents, one per experiment.
func TestSuiteJSONMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	want, err := os.ReadFile("testdata/all_seed42.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := goldenSuite()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, oc := range outs {
		if oc.Err != nil {
			t.Fatalf("%s: %v", oc.Exp.ID, oc.Err)
		}
		buf.WriteString(oc.Exp.Header())
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(oc.Res); err != nil {
			t.Fatalf("%s: %v", oc.Exp.ID, err)
		}
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("suite JSON output drifted from golden (%d bytes vs %d)", buf.Len(), len(want))
	}
}
