package experiments

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzOptionsFromJSON throws hostile documents at the ?opts= decoder for
// every registered experiment. The contract under fuzz: decoding never
// panics, and a document it accepts re-encodes to one that decodes to an
// equal value, so what a client reads back is what the server will run.
func FuzzOptionsFromJSON(f *testing.F) {
	ids := IDs()
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
		if !reflect.DeepEqual(back, opts) {
			t.Fatalf("%s: round trip drifted: %+v became %+v", id, opts, back)
		}
	})
}
