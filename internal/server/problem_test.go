package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ruby/internal/mapspace"
	"ruby/internal/search"
)

// toySearchBody is a small /v1/search or /v1/jobs body naming its mapspace
// and objective.
func toySearchBody(kind, objective string) string {
	return `{
	  "workload": ` + toyWorkloadJSON + `,
	  "arch": ` + toyArchJSON + `,
	  "mapspace": "` + kind + `", "objective": "` + objective + `",
	  "seed": 5, "threads": 1, "max_evaluations": 1500
	}`
}

// networkBody is a small unfused /v1/network body naming its mapspace and
// objective.
func networkBody(kind, objective string) string {
	return `{
	  "network": "deepbench-stacks", "arch": ` + eyerissArchJSON + `, "fuse": false,
	  "mapspace": "` + kind + `", "objective": "` + objective + `",
	  "seed": 5, "threads": 1, "max_evaluations": 300
	}`
}

// Every /v1 endpoint accepts the short and alias spellings, with the same
// meaning as the canonical ones: the same request under either spelling
// returns the same answer.
func TestEndpointsShareSpellings(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	answer := func(path, body string) any {
		t.Helper()
		rec, out := do(t, srv, "POST", path, body)
		switch {
		case path == "/v1/jobs" && rec.Code == http.StatusAccepted:
			return waitJob(t, srv, out["id"].(string), JobDone)["result"]
		case path != "/v1/jobs" && rec.Code == http.StatusOK:
			return out
		}
		t.Fatalf("POST %s: status %d: %v", path, rec.Code, out)
		return nil
	}
	for _, c := range []struct{ path, short, canonical string }{
		{"/v1/search", toySearchBody("s", "cycles"), toySearchBody("ruby-s", "delay")},
		{"/v1/search", toySearchBody(" T ", "Latency"), toySearchBody("ruby-t", "delay")},
		{"/v1/jobs", toySearchBody("s", "cycles"), toySearchBody("ruby-s", "delay")},
		{"/v1/network", networkBody("s", "cycles"), networkBody("ruby-s", "delay")},
	} {
		got, want := answer(c.path, c.short), answer(c.path, c.canonical)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("POST %s: short spellings answer\n%v\nwant\n%v", c.path, got, want)
		}
	}
}

// An unknown mapspace or objective fails with the shared parser's message
// at every endpoint.
func TestUnknownNamesShareOneError(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	_, kindErr := mapspace.ParseKind("zigzag")
	_, objErr := search.ParseObjective("area")
	for _, c := range []struct{ path, body, want string }{
		{"/v1/search", toySearchBody("zigzag", "edp"), kindErr.Error()},
		{"/v1/search", toySearchBody("pfm", "area"), objErr.Error()},
		{"/v1/jobs", toySearchBody("zigzag", "edp"), kindErr.Error()},
		{"/v1/jobs", toySearchBody("pfm", "area"), objErr.Error()},
		{"/v1/network", networkBody("zigzag", "edp"), kindErr.Error()},
		{"/v1/network", networkBody("pfm", "area"), objErr.Error()},
	} {
		rec, out := do(t, srv, "POST", c.path, c.body)
		code, msg := envelope(t, out)
		if rec.Code != http.StatusBadRequest || code != CodeInvalidRequest || msg != c.want {
			t.Errorf("POST %s: status %d, %s %q; want 400 %q", c.path, rec.Code, code, msg, c.want)
		}
	}
}

// Jobs that finish at once: the submit response must come from the record
// as it was under the lock, not from the record the job's goroutine is
// already finishing. Each submission runs on its own goroutine that touches
// nothing afterwards, as an HTTP connection's would, so under -race a read
// outside the lock has nothing ordering it against the job's write.
func TestJobSubmitFinishingAtOnce(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(rec *httptest.ResponseRecorder) {
			defer wg.Done()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(jobBody(1))))
		}(recs[i])
	}
	// Wait for every job to finish before joining the submitters.
	deadline := time.Now().Add(10 * time.Second)
	for done := 0; done < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs done in time", done, n)
		}
		time.Sleep(time.Millisecond)
		done = 0
		for _, rec := range srv.jobs.list() {
			if rec.Status == JobDone {
				done++
			}
		}
	}
	wg.Wait()
	for _, rec := range recs {
		var out map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusAccepted || out["status"] != JobRunning {
			t.Errorf("submit answered %d %s, want 202 with status running", rec.Code, rec.Body)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A state directory written by the previous release (before the /v1
// request type moved to config.SearchRequest) loads unchanged: the job is
// listed with every request field intact, and its problem still resolves.
func TestLegacyJobRecordLoads(t *testing.T) {
	const fixture = "testdata/legacy-state/job-j0000.json"
	dir := t.TempDir()
	raw, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-j0000.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := NewService(Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	rec, ok := srv.jobs.get("j0000")
	if !ok || rec.Status != JobDone || rec.Result == nil || rec.Result.Mapping == nil {
		t.Fatalf("legacy job record not restored: %+v", rec)
	}
	req := rec.Request
	if req.Mapspace != "rubys" || req.Search != "random" || req.Objective != "energy" ||
		req.Seed != 7 || req.Threads != 2 || req.MaxEvaluations != 300 || req.NoImprove != 100 ||
		req.TimeoutMS != 5000 || req.Shard == nil || req.Shard.Index != 2 {
		t.Errorf("request fields lost: %+v", req)
	}
	if _, sp, err := req.Resolve(); err != nil || sp.Kind != mapspace.RubyS || !sp.Cons.FixedPerms {
		t.Errorf("stored problem does not resolve: %v", err)
	}

	// The loaded record re-encodes to the same JSON values.
	var want struct {
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var before, after any
	if err := json.Unmarshal(want.Payload, &before); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &after); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("job record changed on load:\n%s\nwant\n%s", again, want.Payload)
	}
}
