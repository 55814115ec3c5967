package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/parallel"
)

// FuzzOptionsFromJSON throws hostile documents at the ?opts= decoder for
// every registered experiment. The contract under fuzz: decoding never
// panics, no call (accepted or refused) changes any registered default, and
// a document it accepts re-encodes to one that decodes to an equal value,
// so what a client reads back is what the server will run.
func FuzzOptionsFromJSON(f *testing.F) {
	ids := IDs()
	snap := snapshotDefaults(f)
	// A refused document that writes into a default's slice: the 9-level
	// chaos grid is over its cap.
	f.Add(uint8(slices.Index(ids, "chaos")), []byte(`{"Intensities":[1,1,1,1,1,1,1,1,1]}`))
	for i, e := range All() {
		if e.Defaults == nil {
			continue
		}
		raw, err := json.Marshal(e.Defaults)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), raw)
	}
	for _, doc := range []string{`{"Hours":`, `{"Hours":"ten"}`, `{"Bogus":1}`, `{} {}`, `[1,2]`, `null`, `{"Weeks":1e400}`} {
		f.Add(uint8(0), []byte(doc))
	}
	f.Fuzz(func(t *testing.T, which uint8, raw []byte) {
		id := ids[int(which)%len(ids)]
		opts, err := OptionsFromJSON(id, raw)
		checkDefaults(t, snap, raw)
		if err != nil || opts == nil {
			return
		}
		again, err := json.Marshal(opts)
		if err != nil {
			t.Fatalf("%s: re-encoding accepted options %+v: %v", id, opts, err)
		}
		back, err := OptionsFromJSON(id, again)
		if err != nil {
			t.Fatalf("%s: re-encoded options %s rejected: %v", id, again, err)
		}
		checkDefaults(t, snap, again)
		if !reflect.DeepEqual(back, opts) {
			t.Fatalf("%s: round trip drifted: %+v became %+v", id, opts, back)
		}
	})
}

// snapshotDefaults copies every registered default through gob, a copy
// that shares no memory with the registry and no code with the decoder's
// own deep copy.
func snapshotDefaults(tb testing.TB) map[string]Options {
	tb.Helper()
	snap := map[string]Options{}
	for _, e := range All() {
		if e.Defaults == nil {
			continue
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).EncodeValue(reflect.ValueOf(e.Defaults)); err != nil {
			tb.Fatalf("%s: %v", e.ID, err)
		}
		pv := reflect.New(reflect.TypeOf(e.Defaults))
		if err := gob.NewDecoder(&buf).DecodeValue(pv); err != nil {
			tb.Fatalf("%s: %v", e.ID, err)
		}
		snap[e.ID] = pv.Elem().Interface().(Options)
	}
	checkDefaults(tb, snap, nil)
	return snap
}

// checkDefaults fails unless every registered default still equals its
// snapshot; doc names the document just decoded.
func checkDefaults(tb testing.TB, snap map[string]Options, doc []byte) {
	tb.Helper()
	for id, want := range snap {
		if e, _ := Get(id); !reflect.DeepEqual(e.Defaults, want) {
			tb.Fatalf("%s: defaults changed to %+v (want %+v) after decoding %q", id, e.Defaults, want, doc)
		}
	}
}

// southafricaArtifacts encodes the Table 1 world and its converged
// empty-policy RIB: the seeds for the disk-tier payload fuzzers.
func southafricaArtifacts(f *testing.F) (world, rib []byte) {
	f.Helper()
	w, err := scenario.Build(scenario.SouthAfricaID)
	if err != nil {
		f.Fatal(err)
	}
	if world, err = EncodeWorldArtifact(w); err != nil {
		f.Fatal(err)
	}
	r, err := bgp.Compute(context.Background(), parallel.Pool{}, w.Topo, nil)
	if err != nil {
		f.Fatal(err)
	}
	if rib, err = EncodeRIBArtifact(r); err != nil {
		f.Fatal(err)
	}
	return world, rib
}

// recodeStable holds a payload a decoder accepted to the disk tier's
// determinism contract: its re-encoding decodes, and encodes again to
// exactly the same bytes, since the envelope's checksum treats the payload
// as content-addressed.
func recodeStable[T any](t *testing.T, name string, v T, enc func(T) ([]byte, error), dec func([]byte) (T, error)) {
	t.Helper()
	first, err := enc(v)
	if err != nil {
		t.Fatalf("%s: re-encoding an accepted payload: %v", name, err)
	}
	back, err := dec(first)
	if err != nil {
		t.Fatalf("%s: re-encoded payload rejected: %v", name, err)
	}
	encodeAgain(t, name, first, func() ([]byte, error) { return enc(back) })
}

// FuzzDecodeWorldArtifact throws hostile payloads at the world decoder the
// disk tier runs on every file it reads: decoding never panics, and an
// accepted payload is recodeStable.
func FuzzDecodeWorldArtifact(f *testing.F) {
	world, _ := southafricaArtifacts(f)
	f.Add(world)
	f.Add(world[:len(world)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		if w, err := DecodeWorldArtifact(b); err == nil {
			recodeStable(t, "world", w, EncodeWorldArtifact, DecodeWorldArtifact)
		}
	})
}

// FuzzDecodeRIBArtifact is FuzzDecodeWorldArtifact for the RIB payload,
// decoded against the southafrica topology (itself decoded from its
// artifact, as the disk tier would).
func FuzzDecodeRIBArtifact(f *testing.F) {
	world, rib := southafricaArtifacts(f)
	sa, err := DecodeWorldArtifact(world)
	if err != nil {
		f.Fatal(err)
	}
	dec := func(b []byte) (*bgp.RIB, error) { return DecodeRIBArtifact(b, sa.Topo) }
	f.Add(rib)
	f.Add(rib[:len(rib)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		if r, err := dec(b); err == nil {
			recodeStable(t, "rib", r, EncodeRIBArtifact, dec)
		}
	})
}

// FuzzDecodeCampaignArtifact is FuzzDecodeWorldArtifact for the campaign
// payload — a post-simulation world plus every measurement — seeded with a
// short southafrica campaign, the shape TestCampaignArtifactRoundTrip
// round-trips.
func FuzzDecodeCampaignArtifact(f *testing.F) {
	p := campaignParams{Weeks: 1, JoinWeek: 0, UserRate: 0.25, Join: true}
	c, err := runCampaign(context.Background(), parallel.Pool{}, scenario.SouthAfricaID, 42, p)
	if err != nil {
		f.Fatal(err)
	}
	data, err := campaignCodec.Encode(c)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		if c, err := campaignCodec.Decode(b); err == nil {
			recodeStable(t, "campaign", c, campaignCodec.Encode, campaignCodec.Decode)
		}
	})
}
