package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"sisyphus/internal/artifact"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/parallel"
)

// genWorldDigest pins the sha256 of the JSON report of a small sweep that
// includes a generated world. The seed-42 goldens cover only the canned
// South Africa world; this pins generated-world output (topology
// generation, routing, campaigns, estimators) inside the main module, so a
// change that silently moves every gen-world estimate fails `go test`.
const genWorldDigest = "1cb761306ff5fa5b6bfaa7d0e867d916edee333888a0e14af85abdc9318beca5"

// TestSweepGenWorldDigest runs table1, did, exposure and rootcause over
// South Africa and gen:access=10+treated=2+seed=3 at seeds 1 and 2, and
// compares the report's digest to genWorldDigest.
func TestSweepGenWorldDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 16-cell sweep")
	}
	gen, err := scenario.ResolveID("gen:access=10+treated=2+seed=3")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), GridConfig{
		Experiments: []string{"table1", "did", "exposure", "rootcause"},
		Scenarios:   []string{scenario.SouthAfricaID, gen},
		Seeds:       []uint64{1, 2},
		Pool:        parallel.NewPool(2),
		Artifacts:   artifact.NewStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("%d failed cells: %+v", len(rep.Failures), rep.Failures)
	}
	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(doc)
	if got := hex.EncodeToString(sum[:]); got != genWorldDigest {
		t.Fatalf("gen-world sweep report digest = %s, pinned %s", got, genWorldDigest)
	}
}
