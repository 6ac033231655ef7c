package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestHandlerServesSnapshot exercises the debug mux end to end with a live
// registry.
func TestHandlerServesSnapshot(t *testing.T) {
	m := New()
	m.Counter("http.test.hits").Add(3)
	srv := httptest.NewServer(DebugHandler(DebugConfig{Metrics: m}))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["http.test.hits"] != 3 {
		t.Fatalf("snapshot counters = %v", snap.Counters)
	}

	vars, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vars.Body.Close()
	if vars.StatusCode != 200 {
		t.Fatalf("/debug/vars status %d", vars.StatusCode)
	}
}

// TestHandlerNilRegistry pins that the debug mux tolerates a nil registry —
// every endpoint must serve an empty snapshot rather than panic, because
// command-line tools wire the handler up before deciding whether telemetry
// is enabled.
func TestHandlerNilRegistry(t *testing.T) {
	srv := httptest.NewServer(DebugHandler(DebugConfig{}))
	defer srv.Close()

	for _, path := range []string{"/metrics.json", "/debug/vars"} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if res.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, res.StatusCode)
		}
		res.Body.Close()
	}

	res, err := srv.Client().Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry produced a non-empty snapshot: %+v", snap)
	}
}

// TestPublishExpvarRedirects pins the latest-wins contract: republishing
// points the single expvar variable at the new registry.
func TestPublishExpvarRedirects(t *testing.T) {
	a := New()
	a.Counter("redirect.probe").Add(1)
	PublishExpvar(a)
	b := New()
	b.Counter("redirect.probe").Add(2)
	PublishExpvar(b)

	srv := httptest.NewServer(DebugHandler(DebugConfig{Metrics: b}))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(res.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(vars["biscatter"], &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["redirect.probe"] != 2 {
		t.Fatalf("expvar still reads the old registry: %v", snap.Counters)
	}
}
