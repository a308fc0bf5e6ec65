// Package server puts an HTTP/JSON surface on the unified execution
// API: POST /v1/query and POST /v1/txn run one core.Request each
// (synchronously, or as a pollable job with "async": true), with
// per-tenant admission control in front, Prometheus-style counters on
// GET /metrics, and a graceful drain that refuses new work while
// letting admitted executions finish.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/server/api"
)

// Config shapes one server instance.
type Config struct {
	// Scale sizes the workload databases (core.FullScale or
	// core.TestScale). The zero value means full scale.
	Scale *core.Scale
	// MaxInFlight caps admitted sessions across all tenants (default 8):
	// every admitted request runs a traced simulation, so admission is
	// the server's capacity control, not a formality.
	MaxInFlight int
	// PerTenant caps admitted sessions per tenant (default 4). Tenants
	// are named by the X-Tenant request header; absent means "default".
	PerTenant int
	// JobCap bounds retained finished jobs (default 256).
	JobCap int
	// Logger receives structured request logs (id, tenant, mode,
	// outcome, duration). Nil discards them — tests and embedders that
	// don't care stay quiet.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Scale == nil {
		s := core.FullScale()
		c.Scale = &s
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 8
	}
	if c.PerTenant == 0 {
		c.PerTenant = 4
	}
	if c.JobCap == 0 {
		c.JobCap = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server serves the execution API over HTTP.
type Server struct {
	cfg     Config
	runner  *core.Runner
	jobs    *jobStore
	mux     *http.ServeMux
	log     *slog.Logger
	Metrics *Metrics

	mu       sync.Mutex
	tenants  map[string]int
	inflight int
	draining bool
	wg       sync.WaitGroup // admitted executions still running
}

// New builds a server; the workload databases load lazily on first use.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		runner:  core.NewRunner(*cfg.Scale),
		jobs:    newJobStore(cfg.JobCap),
		log:     cfg.Logger,
		Metrics: NewMetrics(),
		tenants: make(map[string]int),
	}
	// Staged-OLTP runs feed the scheduler-internals histograms and the
	// fork counters directly; traced DSS runs feed the hash-join build
	// metrics the same way, every request the side placements, and the
	// request that loads a database how long that took (logged as well).
	s.runner.Sched = s.Metrics.Sched
	s.runner.Join = s.Metrics.Join
	s.runner.Forks = s.Metrics.Forks
	s.runner.Loads = s.Metrics.Loads
	s.runner.Loads.Log = s.log
	s.runner.Sides = s.Metrics.Sides
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/txn", s.handleTxn)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler is the server's route table.
func (s *Server) Handler() http.Handler { return s.mux }

// Runner exposes the underlying runner so tests can compare server
// results against direct batch-mode Run calls on the same databases.
func (s *Server) Runner() *core.Runner { return s.runner }

// admit reserves one session slot for tenant. It returns a release
// closure on success, or the HTTP status and error to refuse with.
func (s *Server) admit(tenant string) (release func(), status int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.Metrics.DrainRejects.Inc()
		return nil, http.StatusServiceUnavailable, errors.New("server is draining; not admitting new work")
	}
	if s.inflight >= s.cfg.MaxInFlight {
		s.Metrics.AdmissionRejects.Inc()
		return nil, http.StatusTooManyRequests, fmt.Errorf("server at capacity (%d sessions in flight)", s.inflight)
	}
	if s.tenants[tenant] >= s.cfg.PerTenant {
		s.Metrics.AdmissionRejects.Inc()
		return nil, http.StatusTooManyRequests, fmt.Errorf("tenant %q at capacity (%d sessions in flight)", tenant, s.tenants[tenant])
	}
	s.inflight++
	s.tenants[tenant]++
	s.Metrics.InFlight.Add(1)
	s.wg.Add(1)
	return func() {
		s.mu.Lock()
		s.inflight--
		s.tenants[tenant]--
		if s.tenants[tenant] == 0 {
			delete(s.tenants, tenant)
		}
		s.mu.Unlock()
		s.Metrics.InFlight.Add(-1)
		s.wg.Done()
	}, 0, nil
}

// BeginDrain stops admitting new work; already-admitted executions
// continue. Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain begins draining and waits for every admitted execution to
// finish, or for ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	s.mu.Lock()
	idle := s.inflight == 0
	s.mu.Unlock()
	if idle {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %w", ctx.Err())
	}
}

// tenantOf names the request's tenant from the X-Tenant header.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr maps an error onto the wire: validation errors carry their
// field name and 400, everything else the given status.
func writeErr(w http.ResponseWriter, status int, err error) {
	body := api.ErrorBody{Error: err.Error()}
	var ve *core.ValidationError
	if errors.As(err, &ve) {
		status = http.StatusBadRequest
		body.Field = ve.Field
	}
	writeJSON(w, status, body)
}

// handleQuery serves POST /v1/query: one DSS measurement.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	creq, err := req.ToCore()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.serve(w, r, creq, req.Async)
}

// handleTxn serves POST /v1/txn: one staged-OLTP transaction batch.
func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	var req api.TxnRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	creq, err := req.ToCore()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.serve(w, r, creq, req.Async)
}

// serve validates, admits, and executes one core request — inline for
// synchronous calls (the response is the Result), or on a background
// goroutine for async ones (the response is the queued Job; the
// admission slot stays held until the job finishes, so async work
// counts against capacity and drain like everything else).
func (s *Server) serve(w http.ResponseWriter, r *http.Request, creq core.Request, async bool) {
	start := time.Now()
	tenant := tenantOf(r)
	// Validate before admission: a malformed request should get its 400
	// without consuming a session slot.
	if err := creq.WithDefaults().Validate(); err != nil {
		s.Metrics.Errors.Inc()
		s.log.Warn("request rejected", "tenant", tenant, "mode", string(creq.Mode), "outcome", "invalid", "err", err)
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	release, status, err := s.admit(tenant)
	if err != nil {
		s.log.Warn("request refused", "tenant", tenant, "mode", string(creq.Mode), "outcome", "refused", "status", status, "err", err)
		writeErr(w, status, err)
		return
	}
	s.Metrics.Requests.Inc()
	s.Metrics.JobsCreated.Inc()
	job := s.jobs.create(tenant, string(creq.Mode))
	logger := s.log.With("id", job.ID, "tenant", tenant, "mode", string(creq.Mode))

	if async {
		logger.Info("job queued", "trace", creq.Trace)
		// Detach from the request context: the submitter's connection
		// closing must not cancel a queued job.
		go func() {
			defer release()
			_, err := s.execute(context.Background(), job.ID, creq)
			s.finishRequest(logger, string(creq.Mode), start, err)
		}()
		writeJSON(w, http.StatusAccepted, job)
		return
	}
	defer release()
	res, err := s.execute(r.Context(), job.ID, creq)
	s.finishRequest(logger, string(creq.Mode), start, err)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("X-Job-Id", job.ID)
	writeJSON(w, http.StatusOK, res)
}

// finishRequest observes the end-to-end latency histogram and emits the
// structured outcome log line for one admitted request.
func (s *Server) finishRequest(logger *slog.Logger, mode string, start time.Time, err error) {
	d := time.Since(start)
	s.Metrics.RequestSeconds.With(mode).Observe(d.Seconds())
	if err != nil {
		logger.Error("request failed", "outcome", "error", "duration", d, "err", err)
		return
	}
	logger.Info("request done", "outcome", "ok", "duration", d)
}

// execute runs one admitted request and records its job outcome.
func (s *Server) execute(ctx context.Context, jobID string, creq core.Request) (*api.Result, error) {
	wait := s.jobs.setRunning(jobID)
	s.Metrics.QueueWait.Observe(wait.Seconds())
	res, err := s.runner.Run(ctx, creq)
	if err != nil {
		s.Metrics.Errors.Inc()
		// A side that panicked has failed its request like any other error
		// (the job ends "error", the slot is released); its stack is logged
		// here, once.
		var pe *par.PanicError
		if errors.As(err, &pe) {
			s.Metrics.Panics.Inc()
			s.log.Error("side panicked", "id", jobID, "side", pe.Label, "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
		}
		s.jobs.finish(jobID, nil, nil, err)
		return nil, err
	}
	s.Metrics.Observe(res)
	wres := api.FromCore(res)
	s.jobs.finish(jobID, &wres, res.Traces, nil)
	return &wres, nil
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleTrace serves GET /v1/jobs/{id}/trace: the job's dual-clock
// spans as Chrome trace-event JSON (load into Perfetto or
// chrome://tracing). Only jobs submitted with "trace": true have one.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	if job.Status == "queued" || job.Status == "running" {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %q is %s; trace is available once it finishes", id, job.Status))
		return
	}
	runs := s.jobs.getTraces(id)
	if len(runs) == 0 {
		writeErr(w, http.StatusNotFound, fmt.Errorf("job %q has no trace (submit with \"trace\": true)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChrome(w, runs); err != nil {
		s.log.Error("trace export failed", "id", id, "err", err)
	}
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it while in-flight work finishes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Metrics.WritePrometheus(w)
}
