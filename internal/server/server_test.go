package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const toyArchJSON = `{
  "name": "toy",
  "levels": [
    {"name": "DRAM"},
    {"name": "GLB", "capacity_words": 512, "fanout": {"x": 6, "multicast": true}}
  ]
}`

const toyWorkloadJSON = `{"name": "d100", "type": "vector1d", "d": 100}`

func do(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON response: %v\n%s", method, path, err, rec.Body)
		}
	}
	return rec, out
}

func TestSuitesEndpoint(t *testing.T) {
	h := New()
	rec, out := do(t, h, "GET", "/v1/suites", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	suites := out["suites"].(map[string]any)
	if suites["resnet50"].(float64) != 22 {
		t.Errorf("resnet50 layers = %v", suites["resnet50"])
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	h := New()
	rec, out := do(t, h, "GET", "/v1/experiments", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if len(out["experiments"].([]any)) != 14 {
		t.Errorf("experiments = %v", out["experiments"])
	}
}

func TestSearchEndpoint(t *testing.T) {
	h := New()
	body := `{
	  "workload": ` + toyWorkloadJSON + `,
	  "arch": ` + toyArchJSON + `,
	  "mapspace": "ruby-s",
	  "seed": 1, "threads": 2, "max_evaluations": 3000
	}`
	rec, out := do(t, h, "POST", "/v1/search", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	cost := out["cost"].(map[string]any)
	if cost["Cycles"].(float64) != 17 {
		t.Errorf("cycles = %v, want 17 (the Fig. 5 mapping)", cost["Cycles"])
	}
	if !strings.Contains(out["loop_nest"].(string), "parFor") {
		t.Error("loop nest missing")
	}
	if out["evaluated"].(float64) <= 0 {
		t.Error("evaluated counter missing")
	}
}

func TestSearchObjectiveDelay(t *testing.T) {
	h := New()
	body := `{
	  "workload": ` + toyWorkloadJSON + `,
	  "arch": ` + toyArchJSON + `,
	  "objective": "delay", "seed": 1, "threads": 2, "max_evaluations": 3000
	}`
	rec, out := do(t, h, "POST", "/v1/search", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
}

func TestEvaluateEndpointRoundTrip(t *testing.T) {
	h := New()
	// First search, then re-evaluate the returned mapping.
	_, out := do(t, h, "POST", "/v1/search", `{
	  "workload": `+toyWorkloadJSON+`,
	  "arch": `+toyArchJSON+`,
	  "seed": 1, "threads": 1, "max_evaluations": 2000
	}`)
	mb, err := json.Marshal(out["mapping"])
	if err != nil {
		t.Fatal(err)
	}
	rec, out2 := do(t, h, "POST", "/v1/evaluate", `{
	  "workload": `+toyWorkloadJSON+`,
	  "arch": `+toyArchJSON+`,
	  "mapping": `+string(mb)+`
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out2)
	}
	c1 := out["cost"].(map[string]any)["EDP"].(float64)
	c2 := out2["cost"].(map[string]any)["EDP"].(float64)
	if c1 != c2 {
		t.Errorf("round-trip EDP changed: %g vs %g", c1, c2)
	}
}

func TestConstructEndpoint(t *testing.T) {
	h := New()
	rec, out := do(t, h, "POST", "/v1/construct", `{
	  "workload": `+toyWorkloadJSON+`,
	  "arch": `+toyArchJSON+`,
	  "mapspace": "ruby-s"
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	if out["cost"].(map[string]any)["Cycles"].(float64) != 17 {
		t.Errorf("heuristic cycles = %v", out["cost"].(map[string]any)["Cycles"])
	}
}

func TestBadRequests(t *testing.T) {
	h := New()
	cases := []struct{ path, body string }{
		{"/v1/search", `{`},
		{"/v1/search", `{"workload": {"type": "vector1d", "name": "x", "d": 4}}`}, // no arch
		{"/v1/search", `{"workload": ` + toyWorkloadJSON + `, "arch": ` + toyArchJSON + `, "mapspace": "zigzag"}`},
		{"/v1/search", `{"workload": ` + toyWorkloadJSON + `, "arch": ` + toyArchJSON + `, "objective": "area"}`},
		{"/v1/evaluate", `{"workload": ` + toyWorkloadJSON + `, "arch": ` + toyArchJSON + `}`}, // no mapping
		{"/v1/evaluate", `{"workload": ` + toyWorkloadJSON + `, "arch": ` + toyArchJSON + `, "mapping": {"factors": {"X": [1]}}}`},
		{"/v1/construct", `{"arch": ` + toyArchJSON + `}`},
	}
	for _, c := range cases {
		rec, out := do(t, h, "POST", c.path, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%v)", c.path, c.body, rec.Code, out)
		}
		if out["error"] == nil {
			t.Errorf("%s: missing error body", c.path)
		}
	}
}

func TestSearchUnsatisfiable(t *testing.T) {
	h := New()
	tiny := `{
	  "name": "tiny",
	  "levels": [
	    {"name": "DRAM"},
	    {"name": "GLB", "capacity_words": 1, "fanout": {"x": 2}}
	  ]
	}`
	rec, out := do(t, h, "POST", "/v1/search", `{
	  "workload": {"name": "d", "type": "vector1d", "d": 7},
	  "arch": `+tiny+`, "max_evaluations": 300
	}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("status %d, want 422 (%v)", rec.Code, out)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	h, counters := NewWithMetrics()
	do(t, h, "POST", "/v1/search", `{
	  "workload": `+toyWorkloadJSON+`,
	  "arch": `+toyArchJSON+`,
	  "seed": 1, "threads": 2, "max_evaluations": 2000
	}`)
	rec, out := do(t, h, "GET", "/v1/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if out["evaluations"].(float64) < 2000 {
		t.Errorf("evaluations = %v, want >= 2000", out["evaluations"])
	}
	if out["searches"].(float64) != 1 {
		t.Errorf("searches = %v, want 1", out["searches"])
	}
	if got := counters.Snapshot().Evaluations; float64(got) != out["evaluations"].(float64) {
		t.Errorf("endpoint and counters disagree: %v vs %d", out["evaluations"], got)
	}
}

func TestSearchTimeoutMS(t *testing.T) {
	h := New()
	// A huge no-improve budget would run for a long time; timeout_ms bounds
	// it server-side and the best-so-far comes back flagged.
	start := time.Now()
	rec, out := do(t, h, "POST", "/v1/search", `{
	  "workload": `+toyWorkloadJSON+`,
	  "arch": `+toyArchJSON+`,
	  "seed": 1, "threads": 2, "no_improve": 1000000000, "timeout_ms": 100
	}`)
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("timed-out search took %v", wall)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	if out["timed_out"] != true {
		t.Errorf("timed_out = %v, want true", out["timed_out"])
	}
}

func TestSearchClientDisconnect(t *testing.T) {
	h := New()
	body := `{
	  "workload": ` + toyWorkloadJSON + `,
	  "arch": ` + toyArchJSON + `,
	  "seed": 1, "threads": 2, "no_improve": 1000000000
	}`
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel() // simulate the client going away
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
}

// timeout_ms bounds every searcher, the population ones included: anneal
// and genetic under a multi-million budget answer promptly with their
// best-so-far and timed_out.
func TestSearchTimeoutBoundsPopulationSearchers(t *testing.T) {
	h := New()
	for _, algo := range []string{"anneal", "genetic"} {
		body := `{
		  "workload": ` + toyWorkloadJSON + `,
		  "arch": ` + toyArchJSON + `,
		  "mapspace": "ruby-s", "search": "` + algo + `",
		  "seed": 1, "max_evaluations": 50000000, "timeout_ms": 50
		}`
		start := time.Now()
		rec, out := do(t, h, "POST", "/v1/search", body)
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("%s: timeout_ms 50 answered after %v", algo, took)
		}
		if rec.Code != http.StatusOK || out["timed_out"] != true {
			t.Errorf("%s: status %d, timed_out %v; want 200 with timed_out", algo, rec.Code, out["timed_out"])
		}
	}
}
