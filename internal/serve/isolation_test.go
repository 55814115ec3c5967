package serve

import (
	"bytes"
	"net/http"
	"net/url"
	"testing"

	"sisyphus/internal/experiments"
	"sisyphus/internal/mathx"
)

// isolationDocs lists, per experiment, ?opts= documents the server accepts
// (each cheap to build, each turning a knob away from its default) and
// documents it refuses. Every accepted table1 document carries faults, so
// its campaign is derived from the same cached clean campaign the default
// request reads.
var isolationDocs = map[string]struct{ accepted, refused []string }{
	"cellular": {[]string{`{"N":500}`, `{"N":1000}`}, []string{`{"N":2}`, `{"N":1000000000}`}},
	"chaos": {[]string{`{"Weeks":4,"JoinWeek":2,"Intensities":[0,0.5]}`},
		[]string{`{"Weeks":53}`, `{"Intensities":[0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8]}`}},
	"collider":       {[]string{`{"Hours":300}`, `{"Hours":500}`}, []string{`{"Hours":1000000000}`}},
	"confounding":    {[]string{`{"Hours":300}`}, []string{`{"Hours":10}`, `{"Hours":1000000000}`}},
	"counterfactual": {[]string{`{"Hours":300}`}, []string{`{"Hours":10}`}},
	"did":            {[]string{`{}`}, []string{`{"Faults":{"DropRate":0.5}}`}},
	"exposure":       {[]string{`{}`}, []string{`{"Hours":300}`}},
	"familyknob":     {[]string{`{"Hours":300}`}, []string{`{"Hours":99}`}},
	"instrument":     {[]string{`{"Hours":300}`}, []string{`{"Hours":8761}`}},
	"intent":         {[]string{`{"Hours":300}`}, []string{`{"Hours":1000000000}`}},
	"mlab":           {[]string{`{"Hours":300}`}, []string{`{"Hours":50}`}},
	"power":          {[]string{`{"Trials":5}`, `{"Trials":8}`}, []string{`{"Trials":-1}`, `{"Trials":100000000}`}},
	"rootcause":      {[]string{`{}`}, []string{`{"Hours":300}`}},
	"table1": {
		[]string{
			`{"Faults":{"Seed":3,"DropRate":0.3,"TruncateRate":0.5,"TimestampSkewStdHours":2,"ReorderRate":0.2,"DuplicateRate":0.2,"OutagesPerKiloHour":10},"Retry":{"MaxAttempts":2}}`,
			`{"Faults":{"Seed":4,"DropRate":1},"Retry":{"MaxAttempts":3}}`,
			`{"Weeks":4,"JoinWeek":2,"Method":1}`,
		},
		[]string{`{"Faults":{"DropRate":2}}`, `{"Retry":{"MaxAttempts":2000000000}}`, `{"Faults":{"OutagesPerKiloHour":1e15,"OutageMeanHours":1e-15}}`},
	},
	"tromboneera": {nil, []string{`{"Hours":5}`}},
}

// TestOptionsRequestsLeaveDefaultsIsolated sends each experiment its
// accepted and refused ?opts= documents in a seeded random order, each
// followed by a default request, on one server. Every default response must equal
// the experiment's seed-42 CLI golden: no options document, accepted or
// refused, may leak into the registered defaults, a cached artifact or a
// cached response. Under the race detector the sequence covers the fast
// experiments only, as the golden sweep does.
func TestOptionsRequestsLeaveDefaultsIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every experiment at its defaults and under options")
	}
	docs := splitGoldenDocs(t, "../experiments/testdata/all_seed42.golden.json")
	ids := experiments.IDs()
	if raceEnabled {
		ids = []string{"collider", "exposure", "intent", "mlab", "rootcause"}
	}
	s := newTestServer(t)
	r := mathx.NewRNG(1)
	for _, id := range ids {
		pool, ok := isolationDocs[id]
		if !ok {
			t.Fatalf("no isolation documents for experiment %s", id)
		}
		type request struct {
			opts   string
			status int
		}
		var seq []request
		for _, o := range pool.accepted {
			seq = append(seq, request{o, http.StatusOK})
		}
		for _, o := range pool.refused {
			seq = append(seq, request{o, http.StatusBadRequest})
		}
		for i := len(seq) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			seq[i], seq[j] = seq[j], seq[i]
		}
		for _, q := range seq {
			opts, status := q.opts, q.status
			if rec := get(t, s, "/experiment/"+id+"?seed=42&opts="+url.QueryEscape(opts)); rec.Code != status {
				t.Fatalf("%s opts=%s: status %d, want %d (body %.200s)", id, opts, rec.Code, status, rec.Body)
			}
			rec := get(t, s, "/experiment/"+id+"?seed=42")
			if rec.Code != http.StatusOK {
				t.Fatalf("%s default after opts=%s: status %d: %.200s", id, opts, rec.Code, rec.Body)
			}
			if !bytes.Equal(rec.Body.Bytes(), docs[id]) {
				t.Fatalf("%s: default response after opts=%s differs from CLI golden (%d bytes vs %d)", id, opts, rec.Body.Len(), len(docs[id]))
			}
		}
	}
}
