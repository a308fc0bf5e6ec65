package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/server/api"
)

// FuzzRequestJSON decodes arbitrary bytes as a server would, into the body
// of POST /v1/query and of POST /v1/txn, and resolves each through ToCore,
// WithDefaults and Validate. None of it may panic, and every request
// Validate accepts must keep each count and each swept list inside its
// bound: the bounds are what stands between a wire request and the
// process's memory. The committed corpus is in testdata/fuzz/FuzzRequestJSON.
func FuzzRequestJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var query api.QueryRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&query) == nil {
			checkAccepted(t, query.ToCore)
		}
		var txn api.TxnRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&txn) == nil {
			checkAccepted(t, txn.ToCore)
		}
	})
}

// checkAccepted resolves the request toCore returns and, when Validate
// accepts it, checks it against core.Limits.
func checkAccepted(t *testing.T, toCore func() (core.Request, error)) {
	req, err := toCore()
	if err != nil {
		return
	}
	req = req.WithDefaults()
	if req.Validate() != nil {
		return
	}
	l := core.Limits
	in := func(field string, n, limit int) {
		if n < 1 || n > limit {
			t.Errorf("%s request accepted with %s %d (bound %d)", req.Mode, field, n, limit)
		}
	}
	sweep := func(field string, ns []int, limit int) {
		if len(ns) > l.Sweep {
			t.Errorf("%s request accepted with %d %s (bound %d)", req.Mode, len(ns), field, l.Sweep)
		}
		for _, n := range ns {
			in(field, n, limit)
		}
	}
	in("clients", req.Clients, l.Clients)
	in("workers", req.Workers, l.Workers)
	sweep("worker_counts", req.WorkerCounts, l.Workers)
	sweep("native_workers", req.NativeWorkers, l.Workers)
	if req.Mode == core.ModeStagedOLTP {
		in("txns", req.Txns, l.Txns)
		in("cohort", req.Cohort, l.Cohort)
		in("parts", req.Parts, l.Parts)
		sweep("part_counts", req.PartCounts, l.Parts)
		if req.RemotePct < 0 || req.RemotePct > 100 {
			t.Errorf("staged request accepted with remote %d%%", req.RemotePct)
		}
	}
}
