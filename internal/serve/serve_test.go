package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"sisyphus/internal/artifact"
	"sisyphus/internal/experiments"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/parallel"
)

// newTestServer returns a Server over a fresh store and the default pool —
// the configuration sisyphusd runs with, minus listeners.
func newTestServer(t *testing.T) *Server {
	t.Helper()
	return New(Config{Store: artifact.NewStore(), Pool: parallel.Pool{}})
}

// get runs one GET through the handler without a network listener.
func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// post runs one POST /query through the handler.
func post(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// splitGoldenDocs parses a committed seed-42 suite golden — `sisyphus -all
// -seed 42` (with or without -json) byte-for-byte — into the per-experiment
// documents between its section headers. Those documents are exactly what
// GET /experiment/{id}?seed=42 must serve in the matching representation.
func splitGoldenDocs(t *testing.T, path string) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]byte{}
	for len(data) > 0 {
		if !bytes.HasPrefix(data, []byte("=== ")) {
			t.Fatalf("golden: expected section header, got %.40q", data)
		}
		nl := bytes.IndexByte(data, '\n')
		header := string(data[4:nl])
		id, _, ok := strings.Cut(header, ":")
		if !ok {
			t.Fatalf("golden: malformed header %q", header)
		}
		data = data[nl+1:]
		if len(data) == 0 || data[0] != '\n' {
			t.Fatalf("golden: missing blank line after header for %s", id)
		}
		data = data[1:]
		end := bytes.Index(data, []byte("\n=== "))
		if end < 0 {
			docs[id], data = data, nil
		} else {
			docs[id], data = data[:end+1], data[end+1:]
		}
	}
	return docs
}

// TestExperimentResponsesMatchCLIGoldens is the serving layer's headline
// acceptance criterion: for every registered experiment, the GET response
// body at seed 42 is byte-identical to the per-experiment document inside
// the committed `sisyphus -all -json -seed 42` golden. Under the race
// detector the sweep restricts to the fast experiments — handler parity is
// width- and detector-independent, and the full suite is raced by the
// experiments package's own goldens.
func TestExperimentResponsesMatchCLIGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full seed-42 suite over HTTP")
	}
	docs := splitGoldenDocs(t, "../experiments/testdata/all_seed42.golden.json")
	for _, id := range experiments.IDs() {
		if _, ok := docs[id]; !ok {
			t.Fatalf("golden has no document for registered experiment %s; regenerate the golden", id)
		}
	}
	ids := experiments.IDs()
	if raceEnabled {
		ids = []string{"collider", "exposure", "intent", "mlab", "rootcause"}
	}
	srv := httptest.NewServer(newTestServer(t).Handler())
	defer srv.Close()
	for _, id := range ids {
		resp, err := http.Get(srv.URL + "/experiment/" + id + "?seed=42")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading body: %v", id, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", id, ct)
		}
		if !bytes.Equal(body, docs[id]) {
			t.Errorf("%s: response body differs from CLI golden (%d bytes vs %d)", id, len(body), len(docs[id]))
		}
	}
}

// TestExperimentHandlerValidation tables every request-validation path:
// each row must be rejected before any experiment runs — the store sees no
// build — with the status and message fragment pinned.
func TestExperimentHandlerValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name     string
		path     string
		status   int
		contains string
	}{
		{"unknown experiment", "/experiment/nope?seed=1", http.StatusNotFound, "unknown experiment"},
		{"unknown experiment lists ids", "/experiment/nope", http.StatusNotFound,
			strings.Join(experiments.IDs(), ", ")},
		{"seed not a number", "/experiment/mlab?seed=abc", http.StatusBadRequest, "seed"},
		{"seed negative", "/experiment/mlab?seed=-1", http.StatusBadRequest, "seed"},
		{"seed overflow", "/experiment/mlab?seed=18446744073709551616", http.StatusBadRequest, "seed"},
		{"seed trailing garbage", "/experiment/mlab?seed=42x", http.StatusBadRequest, "seed"},
		{"unknown parameter", "/experiment/mlab?sede=42", http.StatusBadRequest, "unknown query parameter"},
		{"seed repeated", "/experiment/mlab?seed=7&seed=8", http.StatusBadRequest, `"seed" given 2 times`},
		{"seed repeated with same value", "/experiment/mlab?seed=7&seed=7", http.StatusBadRequest, `"seed" given 2 times`},
		{"scenario repeated", "/experiment/table1?scenario=southafrica&scenario=trombone", http.StatusBadRequest, `"scenario" given 2 times`},
		{"opts repeated", "/experiment/mlab?opts={}&opts={}", http.StatusBadRequest, `"opts" given 2 times`},
		{"workers repeated", "/experiment/mlab?workers=1&workers=2", http.StatusBadRequest, `"workers" given 2 times`},
		{"workers not a number", "/experiment/mlab?workers=many", http.StatusBadRequest, "workers"},
		{"workers zero", "/experiment/mlab?workers=0", http.StatusBadRequest, "workers"},
		{"workers too wide", "/experiment/mlab?workers=65", http.StatusBadRequest, "workers"},
		{"opts malformed", "/experiment/mlab?opts={", http.StatusBadRequest, "options"},
		{"opts unknown field", "/experiment/mlab?opts={\"Bogus\":1}", http.StatusBadRequest, "Bogus"},
		{"opts on optionless experiment", "/experiment/tromboneera?opts={\"Hours\":5}", http.StatusBadRequest, "takes no options"},
		{"opts trailing garbage", "/experiment/mlab?opts={}{}", http.StatusBadRequest, "trailing data"},
		{"opts power trials oversized", "/experiment/power?opts={\"Trials\":100000000}", http.StatusBadRequest, "Trials"},
		{"opts power trials negative", "/experiment/power?opts={\"Trials\":-1}", http.StatusBadRequest, "Trials"},
		{"opts world hours oversized", "/experiment/confounding?opts={\"Hours\":1000000000}", http.StatusBadRequest, "Hours"},
		{"opts world hours undersized", "/experiment/instrument?opts={\"Hours\":10}", http.StatusBadRequest, "Hours"},
		{"opts cellular sessions undersized", "/experiment/cellular?opts={\"N\":2}", http.StatusBadRequest, "cellular N"},
		{"opts horizon hours oversized", "/experiment/collider?opts={\"Hours\":1000000000}", http.StatusBadRequest, "Hours"},
		{"opts table1 weeks oversized", "/experiment/table1?opts={\"Weeks\":1000000}", http.StatusBadRequest, "Weeks"},
		{"opts cellular sessions oversized", "/experiment/cellular?opts={\"N\":1000000000}", http.StatusBadRequest, "cellular N"},
		{"opts table1 user rate oversized", "/experiment/table1?opts={\"UserRate\":1000000}", http.StatusBadRequest, "UserRate"},
		{"opts table1 bins too narrow", "/experiment/table1?opts={\"BinHours\":0.0001}", http.StatusBadRequest, "BinHours"},
		{"opts table1 bins too wide", "/experiment/table1?opts={\"BinHours\":10000}", http.StatusBadRequest, "BinHours"},
		{"opts table1 flaps too frequent", "/experiment/table1?opts={\"FlapEveryHours\":0.0001,\"FlapLink\":3}", http.StatusBadRequest, "FlapEveryHours"},
		{"opts table1 retry attempts oversized", `/experiment/table1?opts={"Faults":{"Seed":1,"DropRate":1},"Retry":{"MaxAttempts":2000000000}}`, http.StatusBadRequest, "MaxAttempts"},
		{"opts table1 drop rate over one", `/experiment/table1?opts={"Faults":{"DropRate":1.5}}`, http.StatusBadRequest, "DropRate"},
		{"opts table1 skew oversized", `/experiment/table1?opts={"Faults":{"TimestampSkewStdHours":1e9}}`, http.StatusBadRequest, "TimestampSkewStdHours"},
		{"opts table1 outage storm", `/experiment/table1?opts={"Faults":{"Seed":1,"OutagesPerKiloHour":1e15,"OutageMeanHours":1e-15}}`, http.StatusBadRequest, "OutagesPerKiloHour"},
		{"opts table1 outages too short", `/experiment/table1?opts={"Faults":{"OutagesPerKiloHour":10,"OutageMeanHours":1e-15}}`, http.StatusBadRequest, "OutageMeanHours"},
		{"opts chaos too many levels", "/experiment/chaos?opts={\"Intensities\":[0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8]}", http.StatusBadRequest, "Intensities"},
		{"scenario unknown id", "/experiment/table1?scenario=atlantis", http.StatusBadRequest, "atlantis"},
		{"scenario bad gen spec", "/experiment/table1?scenario=gen:bogus%3D1", http.StatusBadRequest, "gen:"},
		{"scenario gen count over cap", "/experiment/table1?scenario=gen:access%3D10000000", http.StatusBadRequest,
			fmt.Sprintf("[0, %d]", scenario.GenMaxCount)},
		{"scenario on incapable experiment", "/experiment/collider?scenario=southafrica", http.StatusBadRequest, "scenario-capable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(t, s, tc.path)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body is not the JSON envelope: %v (%s)", err, rec.Body)
			}
			if !strings.Contains(e.Error, tc.contains) {
				t.Errorf("error %q does not contain %q", e.Error, tc.contains)
			}
		})
	}
	if st := s.cfg.Store.Stats(); st.Builds != 0 {
		t.Errorf("rejected requests started %d builds, want 0", st.Builds)
	}
}

// TestExperimentUnknownFlapLink: a flap schedule on a link the world does
// not have is refused as a 400 once the world is known, and a repeat of the
// request gets the same answer instead of parking on a poisoned entry (the
// link used to reach topo.SetLinkUp and panic mid-build).
func TestExperimentUnknownFlapLink(t *testing.T) {
	s := newTestServer(t)
	const path = `/experiment/table1?opts={"FlapEveryHours":50,"FlapLink":999999}`
	var first string
	for i := 0; i < 2; i++ {
		rec := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("request %d: status = %d, want 400 (body %s)", i+1, rec.Code, rec.Body)
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("request %d: error body is not the JSON envelope: %v (%s)", i+1, err, rec.Body)
		}
		if !strings.Contains(e.Error, "FlapLink 999999") {
			t.Errorf("request %d: error %q does not name the link", i+1, e.Error)
		}
		if i == 0 {
			first = rec.Body.String()
		} else if rec.Body.String() != first {
			t.Errorf("repeat answered %s, first answered %s", rec.Body, first)
		}
	}
}

// TestExperimentCounterfactualShortHorizon: a horizon the options accept
// but that leaves the counterfactual's SCM under QueryMinHours of fit is
// refused by the run itself, and still answered as a caller's 400.
func TestExperimentCounterfactualShortHorizon(t *testing.T) {
	rec := get(t, newTestServer(t), `/experiment/counterfactual?opts={"Hours":205}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "counterfactual Hours 205") {
		t.Errorf("error %s does not name the horizon", rec.Body)
	}
}

// TestQueryHandlerValidation tables the /query rejection paths: malformed
// documents are 400s, well-formed but unanswerable questions are 422s, and
// none of them run a simulation.
func TestQueryHandlerValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name     string
		body     string
		status   int
		contains string
	}{
		{"empty body", "", http.StatusBadRequest, "empty"},
		{"malformed json", "{", http.StatusBadRequest, "invalid causal query"},
		{"unknown field", `{"treatment":"R","outcome":"L","bogus":1}`, http.StatusBadRequest, "bogus"},
		{"trailing garbage", `{"treatment":"R","outcome":"L"} extra`, http.StatusBadRequest, "trailing"},
		{"missing treatment", `{"outcome":"L"}`, http.StatusBadRequest, "required"},
		{"same treatment and outcome", `{"treatment":"R","outcome":"R"}`, http.StatusBadRequest, "differ"},
		{"negative seed", `{"treatment":"R","outcome":"L","seed":-1}`, http.StatusBadRequest, "seed"},
		{"overflow seed", `{"treatment":"R","outcome":"L","seed":18446744073709551616}`, http.StatusBadRequest, "seed"},
		{"unknown node", `{"treatment":"Z","outcome":"L"}`, http.StatusBadRequest, "not a node"},
		{"hour treatment", `{"treatment":"hour","outcome":"L"}`, http.StatusBadRequest, "hour"},
		{"unmeasured column", `{"graph":"X -> Y","treatment":"X","outcome":"Y"}`, http.StatusBadRequest, "measured column"},
		{"bad graph", `{"graph":"C -> ","treatment":"R","outcome":"L"}`, http.StatusBadRequest, "graph"},
		{"hours out of range", `{"treatment":"R","outcome":"L","hours":5}`, http.StatusBadRequest, "hours"},
		{"bins out of range", `{"treatment":"R","outcome":"L","bins":999}`, http.StatusBadRequest, "bins"},
		{"bad scenario", `{"treatment":"R","outcome":"L","scenario":"atlantis"}`, http.StatusBadRequest, "scenario"},
		{"gen count over cap", `{"treatment":"R","outcome":"L","scenario":"gen:access=10000000"}`, http.StatusBadRequest,
			fmt.Sprintf("[0, %d]", scenario.GenMaxCount)},
		{"bad adjustment type", `{"treatment":"R","outcome":"L","adjustment":7}`, http.StatusBadRequest, "adjustment"},
		{"adjustment wrong string", `{"treatment":"R","outcome":"L","adjustment":"all"}`, http.StatusBadRequest, "adjustment"},
		{"latent confounder", `{"graph":"U [latent]; U -> R; U -> L; R -> L","treatment":"R","outcome":"L"}`,
			http.StatusUnprocessableEntity, "not identifiable"},
		{"open backdoor", `{"treatment":"R","outcome":"L","adjustment":[]}`,
			http.StatusUnprocessableEntity, "backdoor"},
		{"latent adjustment", `{"graph":"U [latent]; U -> R; U -> L; R -> L","treatment":"R","outcome":"L","adjustment":["U"]}`,
			http.StatusBadRequest, "latent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, s, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body is not the JSON envelope: %v (%s)", err, rec.Body)
			}
			if !strings.Contains(e.Error, tc.contains) {
				t.Errorf("error %q does not contain %q", e.Error, tc.contains)
			}
		})
	}
}

// TestQueryEndpoint runs one real causal question end to end and checks the
// answer document: identification chose C, the estimator panel is complete,
// and the simulator's ground truth is attached.
func TestQueryEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	s := newTestServer(t)
	rec := post(t, s, `{"treatment":"R","outcome":"L","hours":120,"seed":7}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var res experiments.QueryResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if got := res.Identification.Adjustment; len(got) != 1 || got[0] != "C" {
		t.Errorf("identified adjustment = %v, want [C]", got)
	}
	if !res.Identification.Auto {
		t.Error("Auto = false, want true for omitted adjustment")
	}
	if len(res.Estimates) != 4 {
		t.Errorf("estimate panel has %d members, want 4 (naive, stratified, regression, IPW)", len(res.Estimates))
	}
	if res.TrueEffect.IsNaN() {
		t.Error("TrueEffect is null, want the simulator's do(R) contrast")
	}
	if res.Rows != 120 {
		t.Errorf("Rows = %d, want 120", res.Rows)
	}

	// The same question with the adjustment made explicit must identify
	// identically and reuse the cached observational frame (one qframe
	// build across both requests).
	rec2 := post(t, s, `{"treatment":"R","outcome":"L","adjustment":["C"],"hours":120,"seed":7}`)
	if rec2.Code != http.StatusOK {
		t.Fatalf("explicit adjustment: status = %d: %s", rec2.Code, rec2.Body)
	}
	var res2 experiments.QueryResult
	if err := json.Unmarshal(rec2.Body.Bytes(), &res2); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res2.Estimates) != fmt.Sprint(res.Estimates) {
		t.Error("explicit [C] and auto adjustment gave different estimates")
	}
	frames := 0
	for key, st := range s.cfg.Store.PerKey() {
		if key.Kind == "qframe" {
			frames++
			if st.Builds != 1 {
				t.Errorf("qframe %s built %d times, want 1", key, st.Builds)
			}
		}
	}
	if frames != 1 {
		t.Errorf("saw %d qframe keys, want 1", frames)
	}
}

// TestListAndHealth pins the catalogue and liveness endpoints.
func TestListAndHealth(t *testing.T) {
	s := newTestServer(t)
	rec := get(t, s, "/experiments")
	if rec.Code != http.StatusOK {
		t.Fatalf("/experiments status = %d", rec.Code)
	}
	var list []struct{ ID, Paper string }
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(experiments.IDs()) {
		t.Fatalf("catalogue has %d entries, want %d", len(list), len(experiments.IDs()))
	}
	for i, id := range experiments.IDs() {
		if list[i].ID != id {
			t.Errorf("catalogue[%d] = %s, want %s (sorted order)", i, list[i].ID, id)
		}
	}

	rec = get(t, s, "/healthz")
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("/healthz = %d %q", rec.Code, rec.Body)
	}

	// Method and route misses fall to the mux's defaults.
	req := httptest.NewRequest(http.MethodPost, "/experiments", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /experiments = %d, want 405", w.Code)
	}
	if rec := get(t, s, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", rec.Code)
	}
}

// TestAdminEndpoints exercises /metrics and /trace over a served request:
// the recorder must show the route's counter and at least one span, plus
// the store's cache line.
func TestAdminEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment")
	}
	rec := newRecorderServer(t)
	if got := get(t, rec, "/experiment/mlab?seed=3"); got.Code != http.StatusOK {
		t.Fatalf("request failed: %d %s", got.Code, got.Body)
	}
	admin := rec.AdminHandler()

	w := httptest.NewRecorder()
	admin.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", w.Code)
	}
	for _, want := range []string{"http/experiment", "requests", "status_2xx", "evictions"} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("/metrics output missing %q:\n%s", want, w.Body)
		}
	}

	w = httptest.NewRecorder()
	admin.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/trace", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/trace status = %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"span":"http/experiment"`) {
		t.Errorf("/trace missing the request's latency span:\n%s", w.Body)
	}

	w = httptest.NewRecorder()
	admin.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if w.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", w.Code)
	}
}
