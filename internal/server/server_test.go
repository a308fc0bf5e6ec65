package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server/api"
)

// newTestServer builds a test-scale server with room for the test's
// concurrent load.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sc := core.TestScale()
	s := New(Config{Scale: &sc, MaxInFlight: 8, PerTenant: 8})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func post(t *testing.T, url string, body any, tenant string) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestQueryRoundTrip submits a vec-dss query over HTTP and checks the
// wire result against a direct batch-mode Run on the same runner: the
// server must be a transport, not a different engine — digests
// byte-identical.
func TestQueryRoundTrip(t *testing.T) {
	s, hs := newTestServer(t)
	resp, body := post(t, hs.URL+"/v1/query", api.QueryRequest{Mode: "vec-dss", Query: 6}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wire api.Result
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("bad result JSON: %v\n%s", err, body)
	}
	direct, err := s.Runner().Run(context.Background(), core.Request{Mode: core.ModeVecDSS, Query: 6})
	if err != nil {
		t.Fatal(err)
	}
	if wire.Digest != api.Digest(direct.Digest) {
		t.Errorf("served digest %s != batch digest %s", wire.Digest, api.Digest(direct.Digest))
	}
	if wire.Baseline.Digest != api.Digest(direct.Baseline.Digest) {
		t.Errorf("served baseline digest %s != batch %s", wire.Baseline.Digest, api.Digest(direct.Baseline.Digest))
	}
	if wire.Main.Rows != direct.Main.Rows {
		t.Errorf("served %d rows, batch %d", wire.Main.Rows, direct.Main.Rows)
	}
	if d, err := api.ParseDigest(wire.Digest); err != nil || d != direct.Digest {
		t.Errorf("digest %q does not parse back to %#x (%v)", wire.Digest, direct.Digest, err)
	}
}

// TestQueryNativeOnTheWire asks for the native fast-path sweep alongside
// a vec-dss measurement and checks the sweep rides back on the result:
// the interpreted reference first, a compiled point per worker count,
// byte-identical serial digests, and the headline rows/sec populated.
func TestQueryNativeOnTheWire(t *testing.T) {
	_, hs := newTestServer(t)
	resp, body := post(t, hs.URL+"/v1/query",
		api.QueryRequest{Mode: "vec-dss", Query: 6, NativeWorkers: []int{1}}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wire api.Result
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("bad result JSON: %v\n%s", err, body)
	}
	if len(wire.Native) != 2 {
		t.Fatalf("%d native points, want 2 (interpreted + 1 worker count)", len(wire.Native))
	}
	if !wire.Native[0].Interpreted || wire.Native[1].Interpreted {
		t.Fatalf("native points out of order: %+v", wire.Native)
	}
	if wire.Native[0].Digest != wire.Native[1].Digest {
		t.Errorf("serial native digests differ: %s vs %s (fast path changed the result)",
			wire.Native[0].Digest, wire.Native[1].Digest)
	}
	for i, n := range wire.Native {
		if n.Query != 6 || n.Workers != 1 || n.RowsPerSec <= 0 || n.ResultRows <= 0 {
			t.Errorf("native point %d incomplete: %+v", i, n)
		}
	}
	if wire.NativeRowsPerSec <= 0 || wire.NativeRows <= 0 {
		t.Errorf("headline native throughput missing: rows=%d rows/sec=%v",
			wire.NativeRows, wire.NativeRowsPerSec)
	}

	resp, body = post(t, hs.URL+"/v1/query",
		api.QueryRequest{Mode: "vec-dss", Query: 6, NativeWorkers: []int{0}}, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("native_workers 0 accepted: status %d: %s", resp.StatusCode, body)
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Field != "native_workers" {
		t.Errorf("error %s does not name native_workers (%v)", body, err)
	}
}

// TestQueryIgnoresRetiredZeroCopy: a /v1/query body that still carries
// "zero_copy": true, as a client written against the copy-or-borrow
// sweep sends it, is served exactly like the same body without it — body
// decoding is not strict, and every native point borrows either way.
// Wall-clock fields are zeroed before the comparison; everything else,
// native digests and point shape included, must match.
func TestQueryIgnoresRetiredZeroCopy(t *testing.T) {
	_, hs := newTestServer(t)
	serve := func(body string) api.Result {
		t.Helper()
		resp, out := post(t, hs.URL+"/v1/query", json.RawMessage(body), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, resp.StatusCode, out)
		}
		var wire api.Result
		if err := json.Unmarshal(out, &wire); err != nil {
			t.Fatalf("bad result JSON: %v\n%s", err, out)
		}
		for i := range wire.Native {
			n := &wire.Native[i]
			n.Nanos, n.MedianNanos, n.IQRNanos, n.RowsPerSec, n.GBPerSec = 0, 0, 0, 0, 0
		}
		wire.NativeRowsPerSec = 0
		return wire
	}
	plain := serve(`{"mode":"vec-dss","query":6,"native_workers":[1,2]}`)
	old := serve(`{"mode":"vec-dss","query":6,"native_workers":[1,2],"zero_copy":true}`)
	if len(plain.Native) != 3 {
		t.Fatalf("%d native points, want 3 (interpreted + 2 worker counts)", len(plain.Native))
	}
	if !reflect.DeepEqual(plain, old) {
		t.Fatalf("zero_copy changed the served result:\nwithout %+v\nwith    %+v", plain, old)
	}
}

// TestTxnRoundTrip submits an OLTP batch and checks the digest against
// a direct batch-mode Run of the same request.
func TestTxnRoundTrip(t *testing.T) {
	s, hs := newTestServer(t)
	treq := api.TxnRequest{Clients: 6, Txns: 4}
	resp, body := post(t, hs.URL+"/v1/txn", treq, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wire api.Result
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("bad result JSON: %v\n%s", err, body)
	}
	creq, err := treq.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.Runner().Run(context.Background(), creq)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Digest != api.Digest(direct.Digest) {
		t.Errorf("served digest %s != batch digest %s", wire.Digest, api.Digest(direct.Digest))
	}
	if wire.Baseline.Digest != wire.Main.Digest {
		t.Errorf("monolithic %s vs cohort %s: identity not enforced", wire.Baseline.Digest, wire.Main.Digest)
	}
	if wire.Main.Txns != 24 {
		t.Errorf("committed %d, want 24", wire.Main.Txns)
	}
}

// TestConcurrentMixedLoad serves DSS queries and OLTP batches at the
// same time — the acceptance scenario — then checks the executor
// counters that only a served-and-observed run can raise.
func TestConcurrentMixedLoad(t *testing.T) {
	s, hs := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	run := func(path string, body any) {
		defer wg.Done()
		resp, out := post(t, hs.URL+path, body, "")
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Sprintf("%s: status %d: %s", path, resp.StatusCode, out)
		}
	}
	wg.Add(3)
	go run("/v1/query", api.QueryRequest{Mode: "vec-dss", Query: 6})
	go run("/v1/query", api.QueryRequest{Mode: "shared-dss", Query: 6, Clients: 3})
	go run("/v1/txn", api.TxnRequest{Clients: 6, Txns: 4})
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := s.Metrics.Parks.Value(); got == 0 {
		t.Error("no parks counted after an OLTP batch")
	}
	if got := s.Metrics.Rotations.Value(); got == 0 {
		t.Error("no scan rotations counted after a shared-dss query")
	}
	if got := s.Metrics.Requests.Value(); got != 3 {
		t.Errorf("requests counter %d, want 3", got)
	}
	if got := s.Metrics.InFlight.Value(); got != 0 {
		t.Errorf("in-flight gauge %d after all work done", got)
	}
}

// TestAsyncJob submits an async batch, gets a queued job, and polls it
// to completion.
func TestAsyncJob(t *testing.T) {
	_, hs := newTestServer(t)
	resp, body := post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 4, Txns: 2, Async: true}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var job api.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || (job.Status != "queued" && job.Status != "running") {
		t.Fatalf("bad job: %+v", job)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := getBody(t, hs.URL+"/v1/jobs/"+job.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status == "done" {
			break
		}
		if job.Status == "error" {
			t.Fatalf("job failed: %s", job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", job.ID, job.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if job.Result == nil || job.Result.Main.Txns != 8 {
		t.Fatalf("done job has result %+v", job.Result)
	}
	if resp, _ := getBody(t, hs.URL+"/v1/jobs/job-999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", resp.StatusCode)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestValidationOverWire checks that bad requests, oversized ones
// included, come back as 400s naming the offending field, without
// consuming a session slot, and that the server then serves the next one.
func TestValidationOverWire(t *testing.T) {
	s, hs := newTestServer(t)
	workerCounts := make([]int, 10000)
	for i := range workerCounts {
		workerCounts[i] = 1
	}
	cases := []struct {
		path  string
		body  any
		field string
	}{
		{"/v1/query", api.QueryRequest{Mode: "warp-dss"}, "mode"},
		{"/v1/query", api.QueryRequest{Mode: "vec-dss", Query: 5}, "query"},
		{"/v1/query", api.QueryRequest{Mode: "staged-oltp"}, "mode"},
		{"/v1/txn", api.TxnRequest{Parts: -1}, "parts"},
		{"/v1/txn", api.TxnRequest{RemotePct: 140}, "remote"},
		// Counts no request in the repository comes near: each unit is a
		// workspace and a chip thread, so these fail the request here and
		// would otherwise exhaust the process's memory.
		{"/v1/txn", api.TxnRequest{Parts: 100000}, "parts"},
		{"/v1/txn", api.TxnRequest{PartCounts: []int{1, 100000}}, "parts"},
		{"/v1/txn", api.TxnRequest{Clients: 1e9}, "clients"},
		{"/v1/txn", api.TxnRequest{Txns: 1e9}, "txns"},
		{"/v1/query", api.QueryRequest{Mode: "shared-dss", Clients: 100000}, "clients"},
		{"/v1/query", api.QueryRequest{Mode: "parallel-dss", Workers: 100000}, "workers"},
		{"/v1/query", api.QueryRequest{Mode: "parallel-dss", WorkerCounts: workerCounts}, "worker_counts"},
		// A body past the cap is refused before it is read to the end.
		{"/v1/query", api.QueryRequest{JoinMode: strings.Repeat("x", maxBodyBytes)}, ""},
	}
	for _, tc := range cases {
		resp, body := post(t, hs.URL+tc.path, tc.body, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %+v: status %d, want 400", tc.path, tc.body, resp.StatusCode)
			continue
		}
		var eb api.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Field != tc.field {
			t.Errorf("%s %+v: error body %s (want field %q)", tc.path, tc.body, body, tc.field)
		}
	}
	if got := s.Metrics.Requests.Value(); got != 0 {
		t.Errorf("rejected requests consumed %d admissions", got)
	}
	if resp, body := post(t, hs.URL+"/v1/query", api.QueryRequest{Query: 6}, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("the request after the refused ones: status %d: %s", resp.StatusCode, body)
	}
}

// TestAdmissionCaps checks the per-tenant cap: a tenant at capacity
// gets 429 while another tenant is still admitted.
func TestAdmissionCaps(t *testing.T) {
	sc := core.TestScale()
	s := New(Config{Scale: &sc, MaxInFlight: 4, PerTenant: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Occupy tenant-a's single slot manually, then probe over the wire.
	release, _, err := s.admit("tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 2, Txns: 1}, "tenant-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant-a over cap: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 2, Txns: 1}, "tenant-b"); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant-b blocked by tenant-a's cap: status %d: %s", resp.StatusCode, body)
	}
	release()
	if got := s.Metrics.AdmissionRejects.Value(); got != 1 {
		t.Errorf("admission rejects %d, want 1", got)
	}
}

// TestGracefulDrain starts work, begins a drain mid-flight, and checks
// the contract: new work is refused with 503, healthz flips to 503, the
// admitted execution completes with a 200, and Drain returns once the
// server is idle.
func TestGracefulDrain(t *testing.T) {
	s, hs := newTestServer(t)
	started := make(chan struct{})
	result := make(chan int, 1)
	go func() {
		close(started)
		resp, _ := post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 6, Txns: 4}, "")
		result <- resp.StatusCode
	}()
	<-started
	// Wait for the request to be admitted before draining.
	for i := 0; s.Metrics.InFlight.Value() == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.Metrics.InFlight.Value() == 0 {
		t.Fatal("request never admitted")
	}
	s.BeginDrain()

	if resp, body := post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 2, Txns: 1}, ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server admitted work: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := getBody(t, hs.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-result; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", code)
	}
	if got := s.Metrics.DrainRejects.Value(); got == 0 {
		t.Error("no drain rejects counted")
	}

	// An expired context must not hang Drain.
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	if err := s.Drain(expired); err != nil {
		t.Fatalf("drain on idle server with expired ctx: %v", err)
	}
}

// TestMetricsEndpoint scrapes /metrics after a served OLTP batch and
// checks the exposition format and the acceptance counters.
func TestMetricsEndpoint(t *testing.T) {
	_, hs := newTestServer(t)
	if resp, body := post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 6, Txns: 4}, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("txn: status %d: %s", resp.StatusCode, body)
	}
	resp, body := getBody(t, hs.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	text := string(body)
	for _, metric := range []string{
		"dbserver_requests_total", "dbserver_sched_parks_total",
		"dbserver_sched_wounds_total", "dbserver_scan_rotations_total",
		"dbserver_result_cache_hits_total", "dbserver_inflight_sessions",
		"dbserver_tpcc_forks_total",
	} {
		if !strings.Contains(text, "# TYPE "+metric+" ") || !strings.Contains(text, "\n"+metric+" ") {
			t.Errorf("metric %s missing from exposition:\n%s", metric, text)
		}
	}
	var parks, forks, forksTimed int
	for _, line := range strings.Split(text, "\n") {
		fmt.Sscanf(line, "dbserver_sched_parks_total %d", &parks)
		fmt.Sscanf(line, "dbserver_tpcc_forks_total %d", &forks)
		fmt.Sscanf(line, "dbserver_tpcc_fork_seconds_count %d", &forksTimed)
	}
	if parks == 0 {
		t.Error("dbserver_sched_parks_total is zero after an OLTP batch")
	}
	// One private database per side: the monolithic reference and the
	// cohort run.
	if forks != 2 || forksTimed != 2 {
		t.Errorf("dbserver_tpcc_forks_total %d, dbserver_tpcc_fork_seconds_count %d after one OLTP batch, want 2 and 2", forks, forksTimed)
	}
	if resp, _ := getBody(t, hs.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

// TestJobEviction checks the store drops the oldest finished jobs past
// its cap but never live ones.
func TestJobEviction(t *testing.T) {
	st := newJobStore(2)
	a := st.create("default", "vec-dss")
	st.finish(a.ID, nil, nil, nil)
	b := st.create("default", "vec-dss") // stays queued (live)
	c := st.create("default", "vec-dss")
	st.finish(c.ID, nil, nil, nil)
	d := st.create("default", "vec-dss")
	st.finish(d.ID, nil, nil, nil)
	if _, ok := st.get(a.ID); ok {
		t.Error("oldest finished job not evicted")
	}
	if _, ok := st.get(b.ID); !ok {
		t.Error("live job evicted")
	}
	if _, ok := st.get(d.ID); !ok {
		t.Error("newest job evicted")
	}
}

// TestPanickingSideFailsTheJob: a request whose side panics (a TPC-C
// arena too small to load the database into) fails — synchronously with a
// 500, as a job with status "error" instead of staying "running" — counts
// dbserver_panics_total, gives its admission slot back, and leaves the
// process serving.
func TestPanickingSideFailsTheJob(t *testing.T) {
	sc := core.TestScale()
	sc.TPCC.ArenaBytes = 1 << 20
	s := New(Config{Scale: &sc, MaxInFlight: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)

	resp, body := post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 4, Txns: 2}, "")
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "panic in monolithic") {
		t.Fatalf("synchronous batch on a 1 MB arena: status %d: %s", resp.StatusCode, body)
	}

	resp, body = post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 4, Txns: 2, Async: true}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async batch: status %d (a slot leaked?): %s", resp.StatusCode, body)
	}
	var job api.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); job.Status == "queued" || job.Status == "running"; {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", job.ID, job.Status)
		}
		time.Sleep(10 * time.Millisecond)
		_, b := getBody(t, hs.URL+"/v1/jobs/"+job.ID)
		if err := json.Unmarshal(b, &job); err != nil {
			t.Fatal(err)
		}
	}
	if job.Status != "error" || !strings.Contains(job.Error, "panic in monolithic") {
		t.Errorf("job ended %q with error %q, want \"error\" naming the panicked side", job.Status, job.Error)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics.Panics.Value(); n != 2 {
		t.Errorf("dbserver_panics_total = %d after two panicked requests, want 2", n)
	}
	if n := s.Metrics.Errors.Value(); n != 2 {
		t.Errorf("dbserver_errors_total = %d, want 2", n)
	}
	if resp, _ := getBody(t, hs.URL+"/metrics"); resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics after the panics: status %d", resp.StatusCode)
	}
}
