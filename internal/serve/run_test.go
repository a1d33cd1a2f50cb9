package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// TestExecuteJobDeterministic runs one small job twice and compares the
// results as served JSON. Only the declared telemetry may differ: the
// wall-clock phase and stage times and the reuse counters. Any other
// field that changes between identical runs would break the cluster's
// content-addressed result cache, which serves one execution's bytes
// for every duplicate spec.
func TestExecuteJobDeterministic(t *testing.T) {
	spec := JobSpec{Circuit: "ex5p", Scale: 0.05, Effort: 1, MaxIters: 4, Seed: 3, Route: true}
	run := func() []byte {
		res, err := ExecuteJob(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		res.Phases = core.PhaseTimes{}
		res.Incremental = core.IncrementalStats{}
		res.PlaceSeconds, res.EngineSeconds, res.RouteSeconds = 0, 0, 0
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("identical jobs served different results:\n%s\n%s", first, second)
	}
}
