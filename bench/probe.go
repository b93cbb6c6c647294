package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// probe is the benchmark's engine.Metrics (and engine.GuidedMetrics) hook on
// the engines it builds itself: it counts what the engine reports, so the
// per-layer numbers come from the engine's own events.
type probe struct {
	evals, cached, panics atomic.Int64
	latNanos, latCount    atomic.Int64
	batchNanos, batches   atomic.Int64
	moves, restarts       atomic.Int64
}

func (p *probe) Evaluation(_, cached bool) {
	p.evals.Add(1)
	if cached {
		p.cached.Add(1)
	}
}

func (p *probe) EvalLatency(d time.Duration) {
	p.latNanos.Add(int64(d))
	p.latCount.Add(1)
}

func (p *probe) BatchLatency(d time.Duration, _ int) {
	p.batchNanos.Add(int64(d))
	p.batches.Add(1)
}

func (p *probe) Improvement(int64, float64)             {}
func (p *probe) BestObjective(float64)                  {}
func (p *probe) SearchDone(time.Duration, int64, int64) {}
func (p *probe) Panic()                                 { p.panics.Add(1) }
func (p *probe) GuidedMove()                            { p.moves.Add(1) }
func (p *probe) GuidedRestart()                         { p.restarts.Add(1) }

// counters are metric values keyed by their /v1/metrics exposition names:
// either read from a scrape or, for the engines the benchmark builds itself,
// from a probe under the same names.
type counters map[string]float64

func (p *probe) counters() counters {
	return counters{
		"ruby_evaluations_total":           float64(p.evals.Load()),
		"ruby_cache_hits_total":            float64(p.cached.Load()),
		"ruby_eval_panics_total":           float64(p.panics.Load()),
		"ruby_eval_latency_seconds_sum":    float64(p.latNanos.Load()) / 1e9,
		"ruby_eval_latency_seconds_count":  float64(p.latCount.Load()),
		"ruby_batch_latency_seconds_sum":   float64(p.batchNanos.Load()) / 1e9,
		"ruby_batch_latency_seconds_count": float64(p.batches.Load()),
		"ruby_guided_moves":                float64(p.moves.Load()),
		"ruby_guided_restarts":             float64(p.restarts.Load()),
	}
}

// add returns a + sign*b, key by key.
func (a counters) add(b counters, sign float64) counters {
	out := make(counters, len(a))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += sign * v
	}
	return out
}

// putEngine records the engine-layer per-layer metrics from the engine
// activity c over an interval in which the engine's searches ran for
// searchSeconds.
func putEngine(lm map[string]float64, c counters, searchSeconds float64) {
	evals, cached := c["ruby_evaluations_total"], c["ruby_cache_hits_total"]
	lm["engine.cache_hit_frac"] = ratio(cached, evals)
	lm["engine.batch_frac"] = ratio(c["ruby_batch_latency_seconds_sum"], searchSeconds)
	lm["engine.batch_size"] = ratio(evals-cached, c["ruby_batch_latency_seconds_count"])
	lm["engine.panics"] = c["ruby_eval_panics_total"]
	lm["nest.eval_ns"] = 1e9 * ratio(c["ruby_eval_latency_seconds_sum"], c["ruby_eval_latency_seconds_count"])
}

// scrape fetches a service's Prometheus text exposition from /v1/metrics and
// returns its unlabeled samples (counters, gauges and histogram _sum/_count)
// by name.
func scrape(ctx context.Context, c *http.Client, base string) (counters, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", base, resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (counters, error) {
	out := make(counters)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// countingTransport counts the HTTP round trips a client makes.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.base.RoundTrip(r)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
