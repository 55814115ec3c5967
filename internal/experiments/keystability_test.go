package experiments

import (
	"testing"

	"sisyphus/internal/artifact"
	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/netsim/scenario"
)

// TestArtifactKeyStability pins the canned worlds' artifact key ids as
// literals. These ids are the cache's cross-run identity, named in every
// per-key metric label: a drift here silently changes that identity (and
// can break the world-sharing the sweep driver depends on), so renames and
// registry refactors must leave them byte-identical. If this test fails,
// the fix is almost never to re-pin — it is to restore the identity.
func TestArtifactKeyStability(t *testing.T) {
	cases := []struct {
		kind, scenarioID string
		seed             uint64
		cfg              any
		want             string
	}{
		{kindWorld, scenario.SouthAfricaID, 0, nil, "world/southafrica/seed0/-"},
		{kindRIB, scenario.SouthAfricaID, 0, nil, "rib/southafrica/seed0/-"},
		{kindWorld, scenario.TromboneEraID, 0, nil, "world/tromboneera/seed0/-"},
		{kindRIB, scenario.TromboneEraID, 0, nil, "rib/tromboneera/seed0/-"},
		{
			// The default table1 campaign at the golden seed: the exact key
			// every suite run has been sharing since the artifact layer
			// landed. The config hash covers campaignParams' canonical JSON —
			// field renames, reorderings, or type changes all surface here.
			kindCampaign, scenario.SouthAfricaID, 42,
			campaignParamsFrom(Table1Config{Method: synthetic.Robust, WithTruth: true}.withDefaults(), true),
			"campaign/southafrica/seed42/1de9d237ef4467d3fa4af38412a1704a1bb66e8fa89c83b3fbed81f03460a8b7",
		},
		{
			// The default /query observational frame (scenario southafrica,
			// hours 1500) at the golden seed. The scenario id rides in the
			// key's Scenario coordinate — the same position the hard-coded
			// SouthAfricaID occupied before the registry refactor — so the
			// default-path hash must not move.
			kindQueryFrame, scenario.SouthAfricaID, 42,
			struct{ Hours int }{1500},
			"qframe/southafrica/seed42/8738548ab6dc4e4a8992e272b774027e2ced4575bac6e0213e725f2202b10070",
		},
	}
	for _, c := range cases {
		k, err := artifact.NewKey(c.kind, c.scenarioID, c.seed, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if k.ID() != c.want {
			t.Errorf("key %s/%s: id drifted\n got %s\nwant %s", c.kind, c.scenarioID, k.ID(), c.want)
		}
	}
}

// TestScenarioFieldExcludedFromCampaignKey: Table1Config.Scenario is
// analysis routing, not campaign identity — the id already sits in the
// key's Scenario coordinate. Hashing it too would split the cache by a
// redundant coordinate and break key stability across the registry
// refactor.
func TestScenarioFieldExcludedFromCampaignKey(t *testing.T) {
	a := campaignParamsFrom(Table1Config{ScenarioChoice: ScenarioChoice{Scenario: scenario.SouthAfricaID}}.withDefaults(), true)
	b := campaignParamsFrom(Table1Config{ScenarioChoice: ScenarioChoice{Scenario: scenario.TromboneEraID}}.withDefaults(), true)
	ka, err := artifact.NewKey(kindCampaign, "x", 1, a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := artifact.NewKey(kindCampaign, "x", 1, b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("campaign params hash depends on the scenario field: %s vs %s", ka.ID(), kb.ID())
	}
}
