package server

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server/api"
)

// Prometheus text exposition 0.0.4 line shapes.
var (
	helpLine   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	typeLine   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (\+Inf|-Inf|NaN|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)
)

// scrape fetches /metrics and returns its lines (trailing blank dropped).
func scrape(t *testing.T, url string) []string {
	t.Helper()
	resp, body := getBody(t, url+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	return strings.Split(strings.TrimRight(string(body), "\n"), "\n")
}

// sample is one parsed exposition sample.
type sample struct {
	name   string // metric name including _bucket/_sum/_count suffix
	labels string // rendered label list without braces ("" if none)
	value  float64
}

func parseSamples(t *testing.T, lines []string) (samples []sample, types map[string]string) {
	t.Helper()
	types = map[string]string{}
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		labels := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			labels = strings.TrimSuffix(name[i+1:], "}")
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(rest, "+"), 64)
		if err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
		samples = append(samples, sample{name, labels, v})
	}
	return samples, types
}

// TestMetricsExpositionFormat scrapes /metrics after served load and
// checks the exposition line by line against the text-format grammar,
// counter monotonicity across two scrapes, and the histogram invariants
// (cumulative buckets, +Inf bucket equal to _count) for at least three
// histogram families.
func TestMetricsExpositionFormat(t *testing.T) {
	_, hs := newTestServer(t)
	if resp, body := post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 6, Txns: 4}, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("txn: status %d: %s", resp.StatusCode, body)
	}
	first := scrape(t, hs.URL)
	for _, line := range first {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpLine.MatchString(line) {
				t.Errorf("malformed HELP line %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			if !typeLine.MatchString(line) {
				t.Errorf("malformed TYPE line %q", line)
			}
		default:
			if !sampleLine.MatchString(line) {
				t.Errorf("malformed sample line %q", line)
			}
		}
	}

	samples, types := parseSamples(t, first)
	histograms := 0
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		// Group this family's buckets by child (labels minus le).
		type child struct {
			bounds []float64
			counts []float64
			count  float64
			inf    float64
			hasInf bool
		}
		children := map[string]*child{}
		childOf := func(labels string) *child {
			var kept []string
			for _, l := range strings.Split(labels, ",") {
				if l != "" && !strings.HasPrefix(l, `le="`) {
					kept = append(kept, l)
				}
			}
			key := strings.Join(kept, ",")
			if children[key] == nil {
				children[key] = &child{}
			}
			return children[key]
		}
		for _, s := range samples {
			switch s.name {
			case name + "_bucket":
				c := childOf(s.labels)
				le := ""
				for _, l := range strings.Split(s.labels, ",") {
					if strings.HasPrefix(l, `le="`) {
						le = strings.TrimSuffix(strings.TrimPrefix(l, `le="`), `"`)
					}
				}
				if le == "+Inf" {
					c.inf, c.hasInf = s.value, true
					continue
				}
				b, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s: bad le %q", name, le)
				}
				c.bounds = append(c.bounds, b)
				c.counts = append(c.counts, s.value)
			case name + "_count":
				childOf(s.labels).count = s.value
			}
		}
		if len(children) == 0 {
			t.Errorf("histogram %s rendered no children", name)
			continue
		}
		histograms++
		for key, c := range children {
			if !c.hasInf {
				t.Errorf("%s{%s}: no explicit +Inf bucket", name, key)
				continue
			}
			if c.inf != c.count {
				t.Errorf("%s{%s}: +Inf bucket %v != _count %v", name, key, c.inf, c.count)
			}
			for i := 1; i < len(c.counts); i++ {
				if c.bounds[i] <= c.bounds[i-1] {
					t.Errorf("%s{%s}: bucket bounds not ascending: %v", name, key, c.bounds)
				}
				if c.counts[i] < c.counts[i-1] {
					t.Errorf("%s{%s}: buckets not cumulative: %v", name, key, c.counts)
				}
			}
			if n := len(c.counts); n > 0 && c.inf < c.counts[n-1] {
				t.Errorf("%s{%s}: +Inf bucket %v below last finite bucket %v", name, key, c.inf, c.counts[n-1])
			}
		}
	}
	if histograms < 3 {
		t.Errorf("only %d histogram families exposed, want >= 3", histograms)
	}

	// Counters must be monotonic: serve more load, scrape again, and check
	// every counter child moved forward or held.
	if resp, body := post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 4, Txns: 2}, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("second txn: status %d: %s", resp.StatusCode, body)
	}
	second, _ := parseSamples(t, scrape(t, hs.URL))
	after := map[string]float64{}
	for _, s := range second {
		after[s.name+"{"+s.labels+"}"] = s.value
	}
	checked := 0
	for _, s := range samples {
		base, _, _ := strings.Cut(s.name, "_bucket")
		if types[base] != "counter" && !strings.HasSuffix(s.name, "_count") {
			continue
		}
		now, ok := after[s.name+"{"+s.labels+"}"]
		if !ok {
			t.Errorf("counter %s{%s} vanished between scrapes", s.name, s.labels)
			continue
		}
		if now < s.value {
			t.Errorf("counter %s{%s} went backwards: %v -> %v", s.name, s.labels, s.value, now)
		}
		checked++
	}
	if checked == 0 {
		t.Error("monotonicity check matched no counters")
	}
	if v := after["dbserver_requests_total{}"]; v != 2 {
		t.Errorf("dbserver_requests_total = %v after two requests, want 2", v)
	}
	// Every side of every request is placed once — two batches of a
	// monolithic and a cohort side each — and both placements are exposed
	// whether or not this host could overlap anything. The first batch
	// loaded the TPC-C image, so its sides ran in turn.
	overlapped, okO := after[`dbserver_sides_total{placement="overlapped"}`]
	sequential, okS := after[`dbserver_sides_total{placement="sequential"}`]
	if !okO || !okS || overlapped+sequential != 4 || sequential < 2 {
		t.Errorf("dbserver_sides_total: overlapped %v (exposed %v) + sequential %v (exposed %v) after two two-sided requests, want 4 with at least 2 sequential",
			overlapped, okO, sequential, okS)
	}
	// The first batch loaded the TPC-C image, once; nothing has needed
	// TPC-H, whose child is exposed all the same.
	tpcc, okC := after[`dbserver_load_seconds_count{db="tpcc"}`]
	tpch, okH := after[`dbserver_load_seconds_count{db="tpch"}`]
	if !okC || !okH || tpcc != 1 || tpch != 0 {
		t.Errorf("dbserver_load_seconds_count: tpcc %v (exposed %v), tpch %v (exposed %v) after two transaction batches, want 1 and 0",
			tpcc, okC, tpch, okH)
	}
	if v := after[`dbserver_load_seconds_sum{db="tpcc"}`]; v <= 0 {
		t.Errorf("dbserver_load_seconds_sum{db=\"tpcc\"} = %v after a load, want > 0", v)
	}
	if v, ok := after["dbserver_panics_total{}"]; !ok || v != 0 {
		t.Errorf("dbserver_panics_total = %v (exposed %v) after two good requests, want 0", v, ok)
	}
}

// TestRequestLatencyHistogramObserved checks the request-latency and
// queue-wait histograms actually record served work, labeled by mode.
func TestRequestLatencyHistogramObserved(t *testing.T) {
	s, hs := newTestServer(t)
	if resp, body := post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 4, Txns: 2}, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("txn: status %d: %s", resp.StatusCode, body)
	}
	h := s.Metrics.RequestSeconds.With("staged-oltp")
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Errorf("request latency histogram: count %d sum %g", h.Count(), h.Sum())
	}
	if s.Metrics.QueueWait.Count() != 1 {
		t.Errorf("queue wait histogram count %d, want 1", s.Metrics.QueueWait.Count())
	}
	if s.Metrics.RunCycles.With("staged-oltp").Count() == 0 {
		t.Error("run cycles histogram empty after a staged batch")
	}
}

// TestTraceEndpoint drives the traced-job lifecycle over the wire: an
// async traced batch serves Chrome trace-event JSON once done, an
// untraced job 404s with the opt-in hint, and unknown jobs 404.
func TestTraceEndpoint(t *testing.T) {
	_, hs := newTestServer(t)
	if resp, _ := getBody(t, hs.URL+"/v1/jobs/job-999/trace"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", resp.StatusCode)
	}

	resp, body := post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 4, Txns: 2, Async: true, Trace: true}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async txn: status %d: %s", resp.StatusCode, body)
	}
	var job api.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for job.Status != "done" {
		if job.Status == "error" {
			t.Fatalf("job failed: %s", job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", job.ID, job.Status)
		}
		// While unfinished, the trace endpoint must refuse with 409.
		if resp, _ := getBody(t, hs.URL+"/v1/jobs/"+job.ID+"/trace"); resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
			t.Fatalf("in-flight trace: status %d, want 409", resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
		r2, b2 := getBody(t, hs.URL+"/v1/jobs/"+job.ID)
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", r2.StatusCode, b2)
		}
		if err := json.Unmarshal(b2, &job); err != nil {
			t.Fatal(err)
		}
	}
	if job.Result == nil || job.Result.TraceSpans == 0 {
		t.Fatalf("done traced job reports no spans: %+v", job.Result)
	}

	resp, body = getBody(t, hs.URL+"/v1/jobs/"+job.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("trace content type %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < job.Result.TraceSpans {
		t.Errorf("%d trace events for %d spans", len(doc.TraceEvents), job.Result.TraceSpans)
	}

	// An untraced async job has no trace to serve.
	resp, body = post(t, hs.URL+"/v1/txn", api.TxnRequest{Clients: 4, Txns: 2, Async: true}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("untraced async txn: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(120 * time.Second); job.Status != "done"; {
		if job.Status == "error" || time.Now().After(deadline) {
			t.Fatalf("untraced job %s stuck %s: %s", job.ID, job.Status, job.Error)
		}
		time.Sleep(50 * time.Millisecond)
		_, b2 := getBody(t, hs.URL+"/v1/jobs/"+job.ID)
		if err := json.Unmarshal(b2, &job); err != nil {
			t.Fatal(err)
		}
	}
	resp, body = getBody(t, hs.URL+"/v1/jobs/"+job.ID+"/trace")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "trace") {
		t.Errorf("untraced job trace: status %d body %s, want 404 with opt-in hint", resp.StatusCode, body)
	}
}
