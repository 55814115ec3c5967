package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/platform"
	"sisyphus/internal/probe"
)

// Per-kind payload codec versions. Each folds into the disk file's
// fingerprint, so bumping one invalidates every cached file of that kind —
// bump on any change to the export structs, the gob encoding, or the build
// semantics behind them. The binary fingerprint already invalidates on any
// code change when VCS stamping is available; these versions are the manual
// override that works everywhere.
const (
	// v2: scenario.Export gained the casting fields (Eyeball, MLab, Outage,
	// FailureCandidates), which ride in the world payload and inside every
	// campaign payload.
	worldCodecVersion    = "world-gob-v2"
	ribCodecVersion      = "rib-gob-v1"
	campaignCodecVersion = "campaign-gob-v2"
)

// The payloads are gob over map-free export structs whose slices are in
// canonical order, which makes encoding deterministic (gob writes struct
// fields in declaration order and slices in element order) — a requirement,
// since the envelope's checksum treats the payload as content-addressed
// bytes. Floats round-trip bit-exactly through gob, so a decoded artifact
// reproduces byte-identical experiment output.

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(b []byte, v any) (err error) {
	// gob decoding of arbitrary bytes can panic deep inside reflection on
	// pathological type descriptions; the disk tier promises "never panic on
	// hostile bytes", so the recover here converts any such panic into a
	// plain decode error (which the tier counts as corruption and rebuilds).
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gob decode panic: %v", r)
		}
	}()
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// EncodeWorldArtifact serializes a scenario world for the disk tier.
func EncodeWorldArtifact(s *scenario.World) ([]byte, error) {
	return gobEncode(s.Export())
}

// DecodeWorldArtifact reconstructs a world from EncodeWorldArtifact bytes,
// validating every cross-reference; arbitrary bytes error, never panic.
func DecodeWorldArtifact(b []byte) (*scenario.World, error) {
	var e scenario.Export
	if err := gobDecode(b, &e); err != nil {
		return nil, fmt.Errorf("world artifact: %w", err)
	}
	return scenario.Import(&e)
}

// EncodeRIBArtifact serializes a converged RIB for the disk tier.
func EncodeRIBArtifact(r *bgp.RIB) ([]byte, error) {
	return gobEncode(r.Export())
}

// DecodeRIBArtifact reconstructs a RIB from EncodeRIBArtifact bytes,
// rebound onto t — mirroring how the RIB artifact's Build computes over its
// own private world.
func DecodeRIBArtifact(b []byte, t *topo.Topology) (*bgp.RIB, error) {
	var e bgp.Export
	if err := gobDecode(b, &e); err != nil {
		return nil, fmt.Errorf("rib artifact: %w", err)
	}
	return bgp.Import(&e, t)
}

// campaignExport is the campaign artifact's payload: the post-simulation
// world (joins and flaps applied) plus every measurement in ingestion
// order. The platform store's indexes are rebuilt on import, not stored.
type campaignExport struct {
	World        *scenario.Export
	Measurements []*probe.Measurement
}

// EncodeCampaignArtifact serializes a simulated campaign for the disk tier.
func EncodeCampaignArtifact(w *scenario.World, st *platform.Store) ([]byte, error) {
	return gobEncode(&campaignExport{World: w.Export(), Measurements: st.ExportMeasurements()})
}

// DecodeCampaignArtifact reconstructs a campaign — world and measurement
// store — from EncodeCampaignArtifact bytes. The store replays ingestion,
// rebuilding dedup and coverage indexes; every record is validated.
func DecodeCampaignArtifact(b []byte) (*scenario.World, *platform.Store, error) {
	var e campaignExport
	if err := gobDecode(b, &e); err != nil {
		return nil, nil, fmt.Errorf("campaign artifact: %w", err)
	}
	w, err := scenario.Import(e.World)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign artifact: %w", err)
	}
	st, err := platform.ImportStore(e.Measurements)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign artifact: %w", err)
	}
	return w, st, nil
}
