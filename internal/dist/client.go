package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"ruby/internal/config"
	"ruby/internal/nest"
)

// JobResult is the result fragment of a finished worker job.
type JobResult struct {
	Mapping   json.RawMessage `json:"mapping"`
	Cost      nest.Cost       `json:"cost"`
	Evaluated int64           `json:"evaluated"`
	Valid     int64           `json:"valid"`
}

// JobStatus is a worker job's status record.
type JobStatus struct {
	ID     string     `json:"id"`
	Status string     `json:"status"`
	Result *JobResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// Client speaks the worker side of the /v1 API for one rubyserve base URL.
type Client struct {
	// Base is the worker's base URL (e.g. "http://127.0.0.1:8080").
	Base string
	// HTTP is the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

func (cl *Client) client() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

// apiErr decodes the uniform /v1 error envelope into a Go error.
func apiErr(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		return fmt.Errorf("dist: worker %s: %s (%s)", resp.Request.URL.Host, env.Error.Message, env.Error.Code)
	}
	return fmt.Errorf("dist: worker %s: HTTP %d", resp.Request.URL.Host, resp.StatusCode)
}

// drain reads a response body to its end and closes it. Reaching EOF lets
// the transport reuse the connection, and it orders the call after the
// worker's handler has returned: the server writes a body's end only then.
func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<16))
	body.Close()
}

func (cl *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base+path, nil)
	if err != nil {
		return nil, err
	}
	return cl.client().Do(req)
}

// Healthz probes the worker's health endpoint.
func (cl *Client) Healthz(ctx context.Context) error {
	resp, err := cl.get(ctx, "/v1/healthz")
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return apiErr(resp)
	}
	return nil
}

// SubmitShard submits one shard of the spec'd search as an async job,
// seeding it from resume (a search snapshot payload) when non-nil, and
// returns the worker-local job ID.
func (cl *Client) SubmitShard(ctx context.Context, spec *JobSpec, sh Shard, resume json.RawMessage) (string, error) {
	body, err := json.Marshal(config.SearchRequest{
		Problem:        *spec,
		Seed:           sh.Seed,
		MaxEvaluations: sh.MaxEvaluations,
		Shard:          &config.ShardSpec{Index: sh.Index, ChainLo: sh.Chain.Lo, ChainHi: sh.Chain.Hi},
		Resume:         resume,
	})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.client().Do(req)
	if err != nil {
		return "", err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", apiErr(resp)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if out.ID == "" {
		return "", fmt.Errorf("dist: worker %s returned no job id", cl.Base)
	}
	return out.ID, nil
}

// Job fetches a job's status record. A positive wait long-polls: the worker
// holds its reply until the job leaves "running" or wait passes (whole
// milliseconds; a worker that predates the wait_ms parameter replies at
// once).
func (cl *Client) Job(ctx context.Context, id string, wait time.Duration) (*JobStatus, error) {
	path := "/v1/jobs/" + id
	if ms := wait.Milliseconds(); ms > 0 {
		path += "?wait_ms=" + strconv.FormatInt(ms, 10)
	}
	resp, err := cl.get(ctx, path)
	if err != nil {
		return nil, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, apiErr(resp)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// JobCheckpoint fetches a job's latest search snapshot payload. A job that
// has not checkpointed yet (or a worker without a state directory) returns
// (nil, nil).
func (cl *Client) JobCheckpoint(ctx context.Context, id string) (json.RawMessage, error) {
	resp, err := cl.get(ctx, "/v1/jobs/"+id+"/checkpoint")
	if err != nil {
		return nil, err
	}
	defer drain(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiErr(resp)
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return payload, nil
}
