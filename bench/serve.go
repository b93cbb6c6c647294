package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ruby/internal/config"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/obs"
	"ruby/internal/server"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// serve-search: a closed loop of serveClients clients, each sending
// POST /v1/search to an in-process server.NewService through httptest and
// waiting for the reply before sending its next request (callers wait for
// their mapping). The only workload through HTTP/JSON, per-request resolve
// and compile, the engine memo cache and the server's metrics.

// serveClients is the closed loop's client count: one per CPU of the
// two-CPU machine the benchmark is sized for.
const serveClients = 2

// The request payloads, in the /v1 config schemas. toyArchJSON is the
// Fig. 5 global-buffer toy; eyerissArchJSON is configs/eyeriss_like.json.
const (
	toyArchJSON     = `{"name": "toy", "levels": [{"name": "DRAM"}, {"name": "GLB", "capacity_words": 512, "fanout": {"x": 6, "multicast": true}}]}`
	eyerissArchJSON = `{"name": "eyeriss-like-14x12", "levels": [{"name": "DRAM"}, {"name": "GLB", "capacity_kib": 128, "keeps": ["input", "output"], "fanout": {"x": 14, "y": 12, "multicast": true}}, {"name": "PE", "per_role_words": {"input": 12, "output": 16, "weight": 224}}]}`
	fig5JSON        = `{"name": "d100", "type": "vector1d", "d": 100}`
	toyMatmulJSON   = `{"name": "mm", "type": "matmul", "matmul": {"m": 12, "n": 6, "k": 4}}`
)

// Request classes: the two toy classes hit the per-request memo cache
// (tiny spaces, setup-bound), the layer class almost never does
// (eval-bound).
const (
	classFig5   = "fig5"
	classMatmul = "matmul"
	classLayer  = "layer"
)

// serveProblem is one distinct request problem.
type serveProblem struct {
	class, name    string
	workload, arch string // JSON payloads
}

// serveProblems returns a round's problems: a quarter Fig. 5 toy, a quarter
// toy matmul, half ResNet-50/DeepBench layers cycled in suite order.
func serveProblems(n int) []serveProblem {
	layers := append(workloads.ResNet50(), workloads.DeepBench()...)
	out := make([]serveProblem, 0, n)
	for i := 0; i < n/4; i++ {
		out = append(out,
			serveProblem{classFig5, "d100", fig5JSON, toyArchJSON},
			serveProblem{classMatmul, "mm12x6x4", toyMatmulJSON, toyArchJSON})
	}
	for i := 0; i < n/2; i++ {
		l := layers[i%len(layers)]
		out = append(out, serveProblem{classLayer, l.Name, einsumJSON(l.Work), eyerissArchJSON})
	}
	return out
}

// einsumJSON renders a workload as an "einsum" workload payload, the one
// /v1 workload type that expresses every suite layer.
func einsumJSON(w *workload.Workload) string {
	ref := func(t *workload.Tensor) string {
		coords := make([]string, len(t.Coords))
		for i, c := range t.Coords {
			terms := make([]string, len(c.Terms))
			for k, tm := range c.Terms {
				terms[k] = strings.ToLower(tm.Dim)
				if tm.Stride != 1 {
					terms[k] = fmt.Sprintf("%d*%s", tm.Stride, terms[k])
				}
			}
			coords[i] = strings.Join(terms, "+")
		}
		return t.Name + "[" + strings.Join(coords, ",") + "]"
	}
	refs := map[workload.Role]string{}
	for i := range w.Tensors {
		refs[w.Tensors[i].Role] = ref(&w.Tensors[i])
	}
	bounds := make(map[string]int, len(w.Dims))
	for _, d := range w.Dims {
		bounds[d.Name] = d.Bound
	}
	b, err := json.Marshal(config.WorkloadFile{Name: w.Name, Type: "einsum", Einsum: &config.EinsumFile{
		Expr:   refs[workload.Output] + " += " + refs[workload.Input] + " * " + refs[workload.Weight],
		Bounds: bounds,
	}})
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return string(b)
}

// searchReply is the part of a /v1/search reply the benchmark reads.
type searchReply struct {
	Mapping   json.RawMessage `json:"mapping"`
	Cost      nest.Cost       `json:"cost"`
	Evaluated int64           `json:"evaluated"`
	Valid     int64           `json:"valid"`
}

// reEvalEvery is the stride of replies kept for the in-process
// re-evaluation after the timed window.
const reEvalEvery = 8

// kept is one reply re-evaluated after the timed window.
type kept struct {
	problem int
	reply   searchReply
}

type serveRunner struct {
	e        *env
	problems []serveProblem
	svc      *server.Service
	ts       *httptest.Server
	client   *http.Client
	// rec is the traced half's recorder; connections opened while it is set
	// carry it, so the server's search spans land in the same trace.
	rec atomic.Pointer[obs.Recorder]

	mu    sync.Mutex
	wrong error
	kept  []kept

	// Traced rounds only (under mu).
	respBytes int64
	valid     int64
	before    counters
}

func startServe(ctx context.Context, e *env) (runner, error) {
	svc, err := server.NewService(server.Options{})
	if err != nil {
		return nil, err
	}
	s := &serveRunner{e: e, problems: serveProblems(e.size.serveRound), svc: svc}
	s.ts = httptest.NewUnstartedServer(svc)
	s.ts.Config.ConnContext = func(ctx context.Context, _ net.Conn) context.Context {
		return obs.WithRecorder(ctx, s.rec.Load())
	}
	s.ts.Start()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	seen := map[string]bool{}
	for i, p := range s.problems {
		if seen[p.class+p.name] {
			continue
		}
		seen[p.class+p.name] = true
		if _, _, err := s.op(ctx, i, e.seed); err != nil {
			s.close()
			return nil, err
		}
	}
	s.kept = nil
	return s, nil
}

func (s *serveRunner) round(ctx context.Context, r int) []sample {
	if obs.RecorderFrom(ctx) != nil && s.rec.Load() == nil {
		s.beginTrace(ctx)
	}
	order := rand.New(rand.NewSource(s.e.seed*1000 + int64(r))).Perm(len(s.problems))
	out := make([]sample, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) || ctx.Err() != nil {
					return
				}
				// Per-op seeds are distinct across the run's rounds.
				seed := s.e.seed*1_000_000 + int64(r)*1000 + int64(k)
				var rep *searchReply
				out[k], rep, _ = s.op(ctx, order[k], seed)
				if rep != nil && k%reEvalEvery == 0 {
					s.mu.Lock()
					s.kept = append(s.kept, kept{problem: order[k], reply: *rep})
					s.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// beginTrace starts the traced half: the server's counters are read for a
// baseline and idle connections are dropped, so the traced requests' server
// contexts carry the recorder.
func (s *serveRunner) beginTrace(ctx context.Context) {
	before, err := scrape(ctx, http.DefaultClient, s.ts.URL)
	s.mu.Lock()
	s.before = before
	if err != nil && s.wrong == nil {
		s.wrong = err
	}
	s.mu.Unlock()
	s.rec.Store(obs.RecorderFrom(ctx))
	s.client.CloseIdleConnections()
}

// op sends one request for problem i and checks the reply.
func (s *serveRunner) op(ctx context.Context, i int, seed int64) (sample, *searchReply, error) {
	p := s.problems[i]
	body := fmt.Sprintf(`{"workload": %s, "arch": %s, "mapspace": "ruby-s", "search": "random", "threads": 1, "max_evaluations": %d, "no_improve": 0, "seed": %d}`,
		p.workload, p.arch, s.e.size.serveEvals, seed)
	ctx, span := obs.StartSpan(ctx, "op")
	start := time.Now()
	raw, err := s.post(ctx, body)
	smp := sample{dur: time.Since(start), class: p.class, failed: err != nil}
	span.End()
	if err != nil {
		return smp, nil, err
	}
	rep := &searchReply{}
	if err := json.Unmarshal(raw, rep); err != nil {
		smp.failed = true
		return smp, nil, err
	}
	smp.evals, smp.edp = rep.Evaluated, rep.Cost.EDP
	s.mu.Lock()
	defer s.mu.Unlock()
	if obs.RecorderFrom(ctx) != nil {
		s.respBytes += int64(len(raw))
		s.valid += rep.Valid
	}
	if p.class == classFig5 && s.wrong == nil {
		s.wrong = checkFig5(rep)
	}
	return smp, rep, nil
}

func (s *serveRunner) post(ctx context.Context, body string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/v1/search", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/search: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// checkFig5 requires the Fig. 5 toy reply: 17 cycles with X factors
// [1, 17, 6] (DRAM, GLB temporal, GLB spatial).
func checkFig5(rep *searchReply) error {
	var m mapping.Mapping
	if err := json.Unmarshal(rep.Mapping, &m); err != nil {
		return fmt.Errorf("serve-search fig5 reply: %w", err)
	}
	if x := m.Factors["X"]; rep.Cost.Cycles != 17 || len(x) != 3 || x[0] != 1 || x[1] != 17 || x[2] != 6 {
		return fmt.Errorf("serve-search fig5 reply: %v cycles with X factors %v, want 17 cycles with [1 17 6]", rep.Cost.Cycles, x)
	}
	return nil
}

func (s *serveRunner) layers(ctx context.Context, w *window, _ map[string]spanStat) map[string]float64 {
	ops := float64(len(w.samples))
	after, err := scrape(ctx, http.DefaultClient, s.ts.URL)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil && s.wrong == nil {
		s.wrong = err
	}
	delta := after.add(s.before, -1)
	var small, large, all []float64
	for _, smp := range w.samples {
		ms := float64(smp.dur) / 1e6
		all = append(all, ms)
		if smp.class == classLayer {
			large = append(large, ms)
		} else {
			small = append(small, ms)
		}
	}
	p50 := percentile(all, 50)
	lm := map[string]float64{
		"server.search_frac":    ratio(delta["ruby_search_seconds_total"], w.opSeconds()),
		"server.small_p50_frac": ratio(percentile(small, 50), p50),
		"server.large_p50_frac": ratio(percentile(large, 50), p50),
		"server.resp_kb":        float64(s.respBytes) / 1024 / ops,
		"mapspace.valid_frac":   ratio(float64(s.valid), float64(w.evals())),
		"nest.evals_per_op":     float64(w.evals()) / ops,
	}
	putEngine(lm, delta, delta["ruby_search_seconds_total"])
	return lm
}

// check re-evaluates the kept replies' mappings in process, on problems
// resolved from the same payloads; each cost must be bit-identical to the
// server's.
func (s *serveRunner) check() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wrong != nil {
		return s.wrong
	}
	for _, k := range s.kept {
		p := s.problems[k.problem]
		w, err := config.ParseWorkload([]byte(p.workload))
		if err != nil {
			return err
		}
		a, err := config.ParseArch([]byte(p.arch))
		if err != nil {
			return err
		}
		ev, err := nest.NewEvaluator(w, a)
		if err != nil {
			return err
		}
		sp := mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{})
		m, err := mapping.Decode(k.reply.Mapping, w, sp.Slots())
		if err != nil {
			return fmt.Errorf("serve-search %s reply: %w", p.name, err)
		}
		if err := sameCost(ev.Evaluate(m), k.reply.Cost); err != nil {
			return fmt.Errorf("serve-search %s: re-evaluated reply: %w", p.name, err)
		}
	}
	return nil
}

func (s *serveRunner) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	_ = s.svc.Shutdown(context.Background()) // no jobs were submitted; nothing to drain
}
