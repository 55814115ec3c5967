package experiments

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
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
