package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

// OptionsFromJSON decodes per-experiment options from a JSON document into
// the experiment's registered typed options, starting from its defaults:
// fields the document omits keep their default values, so a caller can turn
// one knob without restating the rest. It is the single typed decode path
// shared by every non-Go front end — the HTTP serving layer's ?opts=
// parameter today, config files tomorrow — so per-experiment parsing can
// never fork per consumer.
//
// The decode is strict: unknown fields, trailing garbage, type mismatches
// and values the options type's validate method refuses (the bounds on
// power trials, simulated hours, cellular sessions, chaos levels and a
// Table 1 world's weeks, user rate, bin width and flap period) are errors,
// and an experiment registered without options rejects any document but
// JSON null. Fields tagged `json:"-"`
// (Table1Config.Scenario, which is addressed by the scenario coordinate,
// not the options document) cannot be set this way by construction.
func OptionsFromJSON(id string, raw []byte) (Options, error) {
	e, err := Get(id)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimSpace(raw)
	if e.Defaults == nil {
		if len(trimmed) == 0 || string(trimmed) == "null" {
			return nil, nil
		}
		return nil, fmt.Errorf("experiments: %s takes no options, got %q", id, truncateForErr(trimmed))
	}
	// Every decode starts from a deep copy of the defaults: the JSON decoder
	// writes slices, maps and pointed-to values in place, so a shallow copy
	// would let one request, even a refused one, rewrite the registered
	// defaults every later request starts from.
	def := deepCopy(reflect.ValueOf(e.Defaults))
	if len(trimmed) == 0 || string(trimmed) == "null" {
		return def.Interface().(Options), nil
	}
	// Decode into a fresh value of the registered options' dynamic type,
	// pre-filled with that copy. reflect.New gives the pointer the JSON
	// decoder needs; the registered type always implements Options by value,
	// so the dereferenced result converts back without a second check.
	pv := reflect.New(def.Type())
	pv.Elem().Set(def)
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(pv.Interface()); err != nil {
		return nil, fmt.Errorf("experiments: %s options: %w", id, err)
	}
	// One JSON value and nothing after it: "{}{}", "{} 1" are malformed
	// documents, not options followed by an ignorable tail.
	if dec.More() {
		return nil, fmt.Errorf("experiments: %s options: trailing data after JSON document", id)
	}
	opts := pv.Elem().Interface().(Options)
	if v, ok := opts.(interface{ validate() error }); ok {
		if err := v.validate(); err != nil {
			return nil, err
		}
	}
	return opts, nil
}

// deepCopy returns a copy of v that shares no slice, map or pointer target
// with it. Options are plain data (structs of scalars, slices, maps and
// pointers; no interfaces, channels, funcs or cycles), and the decoder sets
// exported fields only, so unexported ones are copied as they are.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return v
		}
		c := reflect.New(v.Type().Elem())
		c.Elem().Set(deepCopy(v.Elem()))
		return c
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	case reflect.Map:
		if v.IsNil() {
			return v
		}
		c := reflect.MakeMapWithSize(v.Type(), v.Len())
		for it := v.MapRange(); it.Next(); {
			c.SetMapIndex(it.Key(), deepCopy(it.Value()))
		}
		return c
	case reflect.Struct:
		c := reflect.New(v.Type()).Elem()
		c.Set(v)
		for i := 0; i < v.NumField(); i++ {
			if c.Field(i).CanSet() {
				c.Field(i).Set(deepCopy(v.Field(i)))
			}
		}
		return c
	}
	return v
}

// truncateForErr keeps hostile or enormous documents from flooding error
// text.
func truncateForErr(b []byte) string {
	const max = 80
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}

// OptionsWithScenario retargets typed options at the named world, for the
// experiments whose options implement the ScenarioOptions capability.
// Non-scenario-capable options refuse with the capable list — the same
// typed refusal OptionsForScenario gives for defaults, shared here so the
// CLI's -scenario flag and the serving layer's ?scenario= parameter cannot
// drift.
func OptionsWithScenario(o Options, id string) (Options, error) {
	so, ok := o.(ScenarioOptions)
	if !ok {
		return nil, fmt.Errorf("experiments: %T does not take a scenario (scenario-capable: %s)",
			o, strings.Join(ScenarioCapableIDs(), ", "))
	}
	return so.WithScenario(id), nil
}
