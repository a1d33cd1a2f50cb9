package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
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
	first, second := servedResult(t, spec), servedResult(t, spec)
	if !bytes.Equal(first, second) {
		t.Fatalf("identical jobs served different results:\n%s\n%s", first, second)
	}
}

// TestExecuteJobHugeParallelism submits a parallelism far beyond any
// machine's core count (1<<62, which the service accepts): the job
// must complete with the result of a serial run.
func TestExecuteJobHugeParallelism(t *testing.T) {
	const body = `{"circuit": "ex5p", "scale": 0.05, "effort": 1, "max_iters": 4, "seed": 3, "parallelism": %s}`
	spec := func(par string) JobSpec {
		s, err := DecodeSpec(strings.NewReader(fmt.Sprintf(body, par)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	huge := spec("4611686018427387904")
	if huge.Parallelism != 1<<62 {
		t.Fatalf("decoded parallelism %d, want 1<<62", huge.Parallelism)
	}
	serial, got := servedResult(t, spec("1")), servedResult(t, huge)
	if !bytes.Equal(serial, got) {
		t.Fatalf("parallelism 1<<62 served a different result than 1:\n%s\n%s", got, serial)
	}
}

// servedResult executes spec and returns its result as served JSON,
// with the wall-clock phase and stage times and the reuse counters
// zeroed.
func servedResult(t *testing.T, spec JobSpec) []byte {
	t.Helper()
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
