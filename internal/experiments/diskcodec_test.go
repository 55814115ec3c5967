package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"sisyphus/internal/artifact"
	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/parallel"
)

// encodeAgain re-encodes a decoded artifact and requires byte identity with
// the original encoding — the codec-level determinism the envelope's
// content-addressed checksum depends on.
func encodeAgain(t *testing.T, name string, orig []byte, enc func() ([]byte, error)) {
	t.Helper()
	again, err := enc()
	if err != nil {
		t.Fatalf("%s: re-encode: %v", name, err)
	}
	if !bytes.Equal(orig, again) {
		t.Fatalf("%s: decode→encode is not byte-identical (%d vs %d bytes)", name, len(orig), len(again))
	}
}

// TestWorldArtifactRoundTrip: every registered scenario must survive
// encode→decode with a structurally identical export and byte-identical
// re-encoding.
func TestWorldArtifactRoundTrip(t *testing.T) {
	for _, id := range scenario.IDs() {
		w, err := scenario.Build(id)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeWorldArtifact(w)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeWorldArtifact(data)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !reflect.DeepEqual(w.Export(), back.Export()) {
			t.Fatalf("%s: world export drifted through the codec", id)
		}
		encodeAgain(t, id, data, func() ([]byte, error) { return EncodeWorldArtifact(back) })
	}
}

// TestWorldArtifactRejectsGarbage: arbitrary bytes must error, never panic,
// never yield a half-valid world.
func TestWorldArtifactRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xFF}, 512)} {
		if w, err := DecodeWorldArtifact(b); err == nil || w != nil {
			t.Fatalf("garbage decoded to %v, err %v", w, err)
		}
	}
	if _, _, err := DecodeCampaignArtifact([]byte("nope")); err == nil {
		t.Fatal("campaign garbage accepted")
	}
}

// TestRIBArtifactRoundTrip: the converged empty-policy RIB round-trips,
// rebound onto a fresh world, with identical routing answers and identical
// re-encoded bytes.
func TestRIBArtifactRoundTrip(t *testing.T) {
	pool := parallel.Pool{}
	w, err := scenario.Build(scenario.SouthAfricaID)
	if err != nil {
		t.Fatal(err)
	}
	rib, err := bgp.Compute(context.Background(), pool, w.Topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeRIBArtifact(rib)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := scenario.Build(scenario.SouthAfricaID)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRIBArtifact(data, w2.Topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rib.Export(), back.Export()) {
		t.Fatal("RIB export drifted through the codec")
	}
	encodeAgain(t, "rib", data, func() ([]byte, error) { return EncodeRIBArtifact(back) })
}

// TestCampaignArtifactRoundTrip: a short simulated campaign — world with
// joins applied plus every delivered measurement — survives the codec.
func TestCampaignArtifactRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a one-week campaign")
	}
	p := campaignParams{Weeks: 1, JoinWeek: 0, UserRate: 0.25, Join: true}
	c, err := runCampaign(context.Background(), parallel.Pool{}, scenario.SouthAfricaID, 42, p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeCampaignArtifact(c.world, c.store)
	if err != nil {
		t.Fatal(err)
	}
	w, st, err := DecodeCampaignArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.world.Export(), w.Export()) {
		t.Fatal("campaign world drifted through the codec")
	}
	if st.Len() != c.store.Len() {
		t.Fatalf("measurement count drifted: %d vs %d", st.Len(), c.store.Len())
	}
	if !reflect.DeepEqual(c.store.ExportMeasurements(), st.ExportMeasurements()) {
		t.Fatal("measurements drifted through the codec")
	}
	if c.store.TotalCoverage() != st.TotalCoverage() {
		t.Fatal("rebuilt coverage index disagrees with the original")
	}
	encodeAgain(t, "campaign", data, func() ([]byte, error) { return EncodeCampaignArtifact(w, st) })
}

// diskStore builds a Store over a fresh Disk on dir with a pinned
// fingerprint, standing in for one process of a fleet.
func diskStore(t *testing.T, dir string) *artifact.Store {
	t.Helper()
	d, err := artifact.OpenDisk(artifact.DiskConfig{Dir: dir, Fingerprint: "test-fp", Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return artifact.NewStore(artifact.WithDisk(d))
}

// TestTable1DiskTierEquivalence is the fetch-level acceptance criterion: a
// real experiment run uncached, cold through a cache dir, and warm from that
// dir (a fresh store, so everything it serves crossed the disk) must produce
// deeply equal results and identical rendered bytes — and the warm run must
// build nothing.
func TestTable1DiskTierEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two-week campaigns")
	}
	cfg := Table1Config{Weeks: 2, JoinWeek: 1, Seed: 9, Method: synthetic.Robust}
	pool := parallel.Pool{}
	dir := t.TempDir()

	base, err := RunTable1(context.Background(), pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold := diskStore(t, dir)
	coldRes, err := RunTable1(artifact.With(context.Background(), cold), pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := diskStore(t, dir)
	warmRes, err := RunTable1(artifact.With(context.Background(), warm), pool, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(base, coldRes) || base.Render() != coldRes.Render() {
		t.Fatal("cold write-through run drifted from the uncached run")
	}
	if !reflect.DeepEqual(base, warmRes) || base.Render() != warmRes.Render() {
		t.Fatal("warm disk-served run drifted from the uncached run")
	}
	if st := cold.Stats(); st.DiskWrites == 0 || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v, want write-through and no hits", st)
	}
	if st := warm.Stats(); st.Builds != 0 || st.DiskHits == 0 {
		t.Fatalf("warm stats = %+v, want zero builds and only disk hits", st)
	}
}

// TestTable1DiskCorruptionEquivalence corrupts every cached artifact file
// and requires the next run to notice, rebuild, and still produce the exact
// uncached results — the tier's corruption-tolerance promise at experiment
// level.
func TestTable1DiskCorruptionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two-week campaigns")
	}
	cfg := Table1Config{Weeks: 2, JoinWeek: 1, Seed: 9, Method: synthetic.Robust}
	pool := parallel.Pool{}
	dir := t.TempDir()

	base, err := RunTable1(artifact.With(context.Background(), diskStore(t, dir)), pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".art") {
			continue
		}
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("cold run left no artifact files to corrupt")
	}

	s := diskStore(t, dir)
	res, err := RunTable1(artifact.With(context.Background(), s), pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) || base.Render() != res.Render() {
		t.Fatal("corrupted cache dir changed experiment results")
	}
	st := s.Stats()
	if st.DiskCorrupt == 0 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want corruption detected on every probe and no hits", st)
	}
	if st.DiskWrites == 0 {
		t.Fatalf("stats = %+v, want rebuilt artifacts written back", st)
	}
}

// TestTable1DiskWriteFaultEquivalence: a cache volume that cannot persist
// anything (ENOSPC at every fsync) must degrade to exactly the uncached
// behavior — same results, write errors counted, nothing on disk.
func TestTable1DiskWriteFaultEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two-week campaigns")
	}
	cfg := Table1Config{Weeks: 2, JoinWeek: 1, Seed: 9, Method: synthetic.Robust}
	pool := parallel.Pool{}
	dir := t.TempDir()

	base, err := RunTable1(context.Background(), pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ffs := artifact.NewFaultFS(nil)
	ffs.FailSync(syscall.ENOSPC)
	d, err := artifact.OpenDisk(artifact.DiskConfig{Dir: dir, Fingerprint: "test-fp", FS: ffs, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s := artifact.NewStore(artifact.WithDisk(d))
	res, err := RunTable1(artifact.With(context.Background(), s), pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) || base.Render() != res.Render() {
		t.Fatal("failing cache volume changed experiment results")
	}
	st := s.Stats()
	if st.DiskWriteErrors == 0 || st.DiskWrites != 0 {
		t.Fatalf("stats = %+v, want only write errors", st)
	}
	for _, e := range mustReadDir(t, dir) {
		if strings.HasSuffix(e.Name(), ".art") {
			t.Fatalf("artifact persisted through a failing volume: %s", e.Name())
		}
	}
}

func mustReadDir(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}
