package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

func jobBody(maxEvals int) string { return searchJobBody("", maxEvals) }

// searchJobBody is jobBody running the named search algorithm ("" selects
// the server's default).
func searchJobBody(algo string, maxEvals int) string {
	return `{
	  "workload": ` + toyWorkloadJSON + `,
	  "arch": ` + toyArchJSON + `,
	  "mapspace": "ruby-s", "search": "` + algo + `",
	  "seed": 7, "max_evaluations": ` + strconv.Itoa(maxEvals) + `
	}`
}

func waitJob(t *testing.T, h http.Handler, id string, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rec, out := do(t, h, "GET", "/v1/jobs/"+id, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET job: status %d: %v", rec.Code, out)
		}
		if out["status"] == want {
			return out
		}
		if s := out["status"]; s != JobRunning && s != want {
			t.Fatalf("job reached %v, want %v: %v", s, want, out["error"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %q in time", id, want)
	return nil
}

func TestJobLifecycle(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, out := do(t, srv, "POST", "/v1/jobs", jobBody(2000))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", rec.Code, out)
	}
	id := out["id"].(string)
	done := waitJob(t, srv, id, JobDone)
	res := done["result"].(map[string]any)
	if res["evaluated"].(float64) != 2000 {
		t.Errorf("evaluated = %v, want 2000", res["evaluated"])
	}
	cost := res["cost"].(map[string]any)
	if cost["Valid"] != true {
		t.Errorf("job result cost invalid: %v", cost)
	}

	rec, out = do(t, srv, "GET", "/v1/jobs", "")
	if rec.Code != http.StatusOK || len(out["jobs"].([]any)) != 1 {
		t.Errorf("list: status %d, jobs %v", rec.Code, out["jobs"])
	}
	if rec, _ := do(t, srv, "GET", "/v1/jobs/nope", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job: status %d", rec.Code)
	}
}

func TestJobSubmitRejectsBadProblem(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := do(t, srv, "POST", "/v1/jobs", `{"workload": {"type": "vector1d"}}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad problem accepted: status %d", rec.Code)
	}
	if rec, out := do(t, srv, "GET", "/v1/jobs", ""); len(out["jobs"].([]any)) != 0 {
		t.Errorf("rejected job was recorded (status %d): %v", rec.Code, out)
	}
}

// Finished jobs must survive a restart: a fresh Service on the same state
// directory lists them with their results.
func TestJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewService(Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, out := do(t, srv, "POST", "/v1/jobs", jobBody(1500))
	id := out["id"].(string)
	waitJob(t, srv, id, JobDone)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewService(Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec, out := do(t, srv2, "GET", "/v1/jobs/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("restarted server lost job: status %d", rec.Code)
	}
	if out["status"] != JobDone {
		t.Errorf("status %v after restart, want done", out["status"])
	}
	if out["result"] == nil {
		t.Error("result lost across restart")
	}
	// New submissions must not collide with recovered IDs.
	_, out2 := do(t, srv2, "POST", "/v1/jobs", jobBody(100))
	if out2["id"] == id {
		t.Errorf("job ID %v reused after restart", id)
	}
	waitJob(t, srv2, out2["id"].(string), JobDone)
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A job interrupted by a graceful shutdown resumes on the next startup and
// finishes with the same result as an uninterrupted run, whichever
// resumable searcher it runs.
func TestInterruptedJobResumesDeterministically(t *testing.T) {
	for _, algo := range []string{"", "anneal", "genetic"} {
		t.Run("search="+algo, func(t *testing.T) {
			body := searchJobBody(algo, 60000)
			// Reference: the same job run uninterrupted.
			ref, err := NewService(Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, out := do(t, ref, "POST", "/v1/jobs", body)
			want := waitJob(t, ref, out["id"].(string), JobDone)["result"].(map[string]any)

			dir := t.TempDir()
			srv, err := NewService(Options{StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			_, out = do(t, srv, "POST", "/v1/jobs", body)
			id := out["id"].(string)
			// Shut down almost immediately: the job is still running.
			time.Sleep(10 * time.Millisecond)
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			rec, out := do(t, srv, "GET", "/v1/jobs/"+id, "")
			if rec.Code != http.StatusOK {
				t.Fatal("job lost at shutdown")
			}
			if s := out["status"]; s != JobInterrupted && s != JobDone {
				t.Fatalf("status %v after drain, want interrupted (or done if it won the race)", s)
			}

			srv2, err := NewService(Options{StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			got := waitJob(t, srv2, id, JobDone)["result"].(map[string]any)
			if got["evaluated"] != want["evaluated"] {
				t.Errorf("resumed job evaluated %v, want %v", got["evaluated"], want["evaluated"])
			}
			gc, wc := got["cost"].(map[string]any), want["cost"].(map[string]any)
			if gc["EDP"] != wc["EDP"] || gc["Cycles"] != wc["Cycles"] {
				t.Errorf("resumed job cost (EDP %v, cycles %v), want (EDP %v, cycles %v)",
					gc["EDP"], gc["Cycles"], wc["EDP"], wc["Cycles"])
			}
			if err := srv2.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A job's threads field sets only how many goroutines it searches on: the
// same job at one and at three threads finishes with the same result.
func TestJobThreadsSameResult(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"", "genetic"} {
		var results [2]string
		for i, threads := range []int{1, 3} {
			body := `{
			  "workload": ` + toyWorkloadJSON + `,
			  "arch": ` + toyArchJSON + `,
			  "mapspace": "ruby-s", "search": "` + algo + `",
			  "seed": 7, "max_evaluations": 3000, "threads": ` + strconv.Itoa(threads) + `
			}`
			rec, out := do(t, srv, "POST", "/v1/jobs", body)
			if rec.Code != http.StatusAccepted {
				t.Fatalf("search=%q threads=%d: submit status %d: %v", algo, threads, rec.Code, out)
			}
			raw, err := json.Marshal(waitJob(t, srv, out["id"].(string), JobDone)["result"])
			if err != nil {
				t.Fatal(err)
			}
			results[i] = string(raw)
		}
		if results[0] != results[1] {
			t.Errorf("search=%q: result at one thread\n%s\nat three\n%s", algo, results[0], results[1])
		}
	}
}

// A 600-evaluation anneal job takes the warm-up default from its budget (a
// tenth of it), so it leaves the warm-up and anneals: its final snapshot
// has no warm-up left and holds a working mapping.
func TestJobAnnealWarmupFromBudget(t *testing.T) {
	srv, err := NewService(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, out := do(t, srv, "POST", "/v1/jobs", searchJobBody("anneal", 600))
	id := out["id"].(string)
	waitJob(t, srv, id, JobDone)
	rec, st := do(t, srv, "GET", "/v1/jobs/"+id+"/checkpoint", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: status %d: %v", rec.Code, st)
	}
	if st["algo"] != "anneal" || st["done"] != true || st["evaluated"] != 600.0 {
		t.Errorf("final snapshot: algo %v, done %v, evaluated %v; want anneal, true, 600", st["algo"], st["done"], st["evaluated"])
	}
	if left, ok := st["warmup_left"]; ok && left != 0.0 {
		t.Errorf("warmup_left = %v, want 0", left)
	}
	if st["cur"] == nil {
		t.Error("final snapshot holds no working mapping: the annealer never left its warm-up")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownRejectsNewJobs(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, _ := do(t, srv, "POST", "/v1/jobs", jobBody(100))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining server accepted a job: status %d", rec.Code)
	}
}

// longPoll issues GET /v1/jobs/{id}?wait_ms=N and reports how long the reply
// took.
func longPoll(t *testing.T, h http.Handler, id, waitMS string) (*httptest.ResponseRecorder, map[string]any, time.Duration) {
	t.Helper()
	start := time.Now()
	rec, out := do(t, h, "GET", "/v1/jobs/"+id+"?wait_ms="+waitMS, "")
	return rec, out, time.Since(start)
}

// submitJob posts a job with the given evaluation budget and returns its ID.
func submitJob(t *testing.T, h http.Handler, maxEvals int) string {
	t.Helper()
	rec, out := do(t, h, "POST", "/v1/jobs", jobBody(maxEvals))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", rec.Code, out)
	}
	return out["id"].(string)
}

// A long-poll on a job that has already finished returns at once.
func TestJobWaitFinishedReturnsAtOnce(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, srv, 500)
	waitJob(t, srv, id, JobDone)
	rec, out, took := longPoll(t, srv, id, "30000")
	if rec.Code != http.StatusOK || out["status"] != JobDone {
		t.Fatalf("status %d, job %v", rec.Code, out["status"])
	}
	if took > time.Second {
		t.Errorf("long-poll on a finished job took %v", took)
	}
}

// A long-poll on a running job returns as soon as the job ends, long before
// wait_ms.
func TestJobWaitReturnsWhenJobEnds(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, srv, 200000)
	rec, out, took := longPoll(t, srv, id, "30000")
	returned := time.Now()
	if rec.Code != http.StatusOK || out["status"] != JobDone {
		t.Fatalf("status %d, job %v, want done", rec.Code, out["status"])
	}
	if took > 20*time.Second {
		t.Fatalf("long-poll took %v, close to its 30 s wait", took)
	}
	finished, err := time.Parse(time.RFC3339Nano, out["finished_at"].(string))
	if err != nil {
		t.Fatal(err)
	}
	if lag := returned.Sub(finished); lag > 250*time.Millisecond {
		t.Errorf("long-poll returned %v after the job finished", lag)
	}
}

// A long-poll whose wait passes while the job still runs returns "running".
func TestJobWaitDeadlineReturnsRunning(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	id := submitJob(t, srv, 1<<40)
	rec, out, took := longPoll(t, srv, id, "100")
	if rec.Code != http.StatusOK || out["status"] != JobRunning {
		t.Fatalf("status %d, job %v, want running", rec.Code, out["status"])
	}
	if took < 100*time.Millisecond || took > 5*time.Second {
		t.Errorf("wait_ms=100 returned after %v", took)
	}
}

func TestJobWaitRejectsBadRequests(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, srv, 100)
	waitJob(t, srv, id, JobDone)
	rec, _, took := longPoll(t, srv, "nope", "30000")
	if rec.Code != http.StatusNotFound || took > time.Second {
		t.Errorf("unknown job: status %d after %v, want an immediate 404", rec.Code, took)
	}
	for _, v := range []string{"-1", "abc", "1.5", "-99999999999999999999"} {
		rec, out, _ := longPoll(t, srv, id, v)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("wait_ms=%s: status %d, want 400", v, rec.Code)
			continue
		}
		if e, _ := out["error"].(map[string]any); e["code"] != CodeInvalidRequest || e["message"] == "" {
			t.Errorf("wait_ms=%s: error envelope %v", v, out)
		}
	}
	for _, v := range []string{"", "0"} {
		if rec, out, _ := longPoll(t, srv, id, v); rec.Code != http.StatusOK || out["status"] != JobDone {
			t.Errorf("wait_ms=%q: status %d, job %v", v, rec.Code, out["status"])
		}
	}
}

// Waits above the documented maximum are capped, not rejected.
func TestJobWaitCapped(t *testing.T) {
	for v, want := range map[string]time.Duration{
		"":                     0,
		"0":                    0,
		"250":                  250 * time.Millisecond,
		"60000":                maxJobWait,
		"60001":                maxJobWait,
		"99999999999999999999": maxJobWait,
	} {
		got, err := parseWait(v)
		if err != nil || got != want {
			t.Errorf("parseWait(%q) = %v, %v; want %v", v, got, err, want)
		}
	}
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, srv, 100)
	waitJob(t, srv, id, JobDone)
	if rec, out, _ := longPoll(t, srv, id, "99999999999999999999"); rec.Code != http.StatusOK || out["status"] != JobDone {
		t.Errorf("capped wait: status %d, job %v", rec.Code, out["status"])
	}
}

// Service.Shutdown releases a waiting long-poll promptly with status
// "interrupted", and no handler is left running after the drain: the test
// server's Close, which blocks on outstanding requests, returns at once.
func TestJobWaitReleasedByShutdown(t *testing.T) {
	srv, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, srv, 1<<40)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type reply struct {
		status string
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait_ms=30000")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		s, _ := out["status"].(string)
		got <- reply{status: s, err: err}
	}()
	select {
	case r := <-got:
		t.Fatalf("long-poll returned before the shutdown: status %q, err %v", r.status, r.err)
	case <-time.After(50 * time.Millisecond):
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil || r.status != JobInterrupted {
			t.Fatalf("released long-poll: status %q, err %v; want interrupted", r.status, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll still waiting 5 s after Shutdown")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("shutdown released the long-poll after %v", took)
	}
	closed := make(chan struct{})
	go func() {
		ts.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("a handler is still running after the drain")
	}
}
