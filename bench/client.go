package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/api"
)

// testServer is an in-process server.New(...) handler — the one
// cmd/dbserver wraps — on a real loopback TCP listener, plus the
// net/http client that drives it.
type testServer struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
	// admitted counts requests sent that the server should have admitted
	// (every valid POST), for the /metrics reconciliation at the end.
	admitted atomic.Int64
}

func startServer(scale core.Scale) (*testServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{Scale: &scale})
	s := &testServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains admitted work, shuts the listener down and waits for the
// serving goroutine to exit.
func (s *testServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		return err
	}
	if err := s.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	s.client.CloseIdleConnections()
	return nil
}

// do sends one request and decodes a JSON reply into out (when non-nil
// and the status matches want). Any other status is an error carrying
// the server's message.
func (s *testServer) do(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// query runs one synchronous POST /v1/query.
func (s *testServer) query(q api.QueryRequest) (observed, error) {
	s.admitted.Add(1)
	var res api.Result
	if err := s.do("POST", "/v1/query", q, http.StatusOK, &res); err != nil {
		return observed{}, err
	}
	return observeResult(res)
}

// txn runs one synchronous POST /v1/txn.
func (s *testServer) txn(t api.TxnRequest) (observed, error) {
	s.admitted.Add(1)
	var res api.Result
	if err := s.do("POST", "/v1/txn", t, http.StatusOK, &res); err != nil {
		return observed{}, err
	}
	return observeResult(res)
}

// pollEvery is the job-status polling period of the async client.
const pollEvery = 5 * time.Millisecond

// txnJob submits the batch with "async": true and polls the job until
// it is observed done: the latency a fire-and-poll caller sees.
func (s *testServer) txnJob(t api.TxnRequest) (observed, error) {
	t.Async = true
	s.admitted.Add(1)
	var job api.Job
	if err := s.do("POST", "/v1/txn", t, http.StatusAccepted, &job); err != nil {
		return observed{}, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		time.Sleep(pollEvery)
		if err := s.do("GET", "/v1/jobs/"+job.ID, nil, http.StatusOK, &job); err != nil {
			return observed{}, err
		}
		switch job.Status {
		case "done":
			if job.Result == nil {
				return observed{}, fmt.Errorf("job %s done without a result", job.ID)
			}
			return observeResult(*job.Result)
		case "error":
			return observed{}, fmt.Errorf("job %s: %s", job.ID, job.Error)
		}
		if time.Now().After(deadline) {
			return observed{}, fmt.Errorf("job %s still %s after 60s", job.ID, job.Status)
		}
	}
}

// counter scrapes GET /metrics and returns one un-labelled sample.
func (s *testServer) counter(name string) (float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var val float64
	found := false
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			if val, err = strconv.ParseFloat(f[1], 64); err != nil {
				return 0, fmt.Errorf("metric %s: %w", name, err)
			}
			found = true
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("metric %s not exposed", name)
	}
	return val, nil
}

// reconcile checks the server counted exactly the requests sent.
func (s *testServer) reconcile() error {
	got, err := s.counter("dbserver_requests_total")
	if err != nil {
		return err
	}
	if want := float64(s.admitted.Load()); got != want {
		return fmt.Errorf("/metrics dbserver_requests_total %v, client sent %v", got, want)
	}
	return nil
}
