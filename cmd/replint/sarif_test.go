package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"

	"repro/internal/analysis"
)

// TestSARIFReport table-tests the pure finding→SARIF shaping: rule
// catalog indexing, error/note levels, suppression records, and
// location encoding.
func TestSARIFReport(t *testing.T) {
	analyzers := analysis.All()
	ruleIdx := map[string]int{}
	for i, a := range analyzers {
		ruleIdx[a.Name] = i
	}

	finding := func(rule, file string, line, col int, msg string) analysis.Finding {
		return analysis.Finding{
			Pos:  token.Position{Filename: file, Line: line, Column: col},
			Rule: rule, Msg: msg,
		}
	}
	suppressed := func(f analysis.Finding, reason string) analysis.Finding {
		f.Suppressed = true
		f.Reason = reason
		return f
	}

	cases := []struct {
		name     string
		findings []analysis.Finding
		check    func(t *testing.T, log sarifLog)
	}{
		{
			name:     "empty run still lists the catalog",
			findings: nil,
			check: func(t *testing.T, log sarifLog) {
				if len(log.Runs) != 1 {
					t.Fatalf("runs = %d, want 1", len(log.Runs))
				}
				run := log.Runs[0]
				if len(run.Results) != 0 {
					t.Errorf("results = %d, want 0", len(run.Results))
				}
				// Every analyzer plus the directive pseudo-rule.
				if got, want := len(run.Tool.Driver.Rules), len(analyzers)+1; got != want {
					t.Errorf("driver rules = %d, want %d", got, want)
				}
				last := run.Tool.Driver.Rules[len(run.Tool.Driver.Rules)-1]
				if last.ID != "directive" {
					t.Errorf("last rule = %q, want directive", last.ID)
				}
			},
		},
		{
			name: "unsuppressed finding is an error with a location",
			findings: []analysis.Finding{
				finding("shardwrite", "internal/embed/solve.go", 184, 3,
					"worker shard writes captured outs via out.seeds without a per-shard index"),
			},
			check: func(t *testing.T, log sarifLog) {
				r := log.Runs[0].Results[0]
				if r.Level != "error" {
					t.Errorf("level = %q, want error", r.Level)
				}
				if r.RuleID != "shardwrite" || r.RuleIndex != ruleIdx["shardwrite"] {
					t.Errorf("ruleId/index = %q/%d, want shardwrite/%d", r.RuleID, r.RuleIndex, ruleIdx["shardwrite"])
				}
				if len(r.Suppressions) != 0 {
					t.Errorf("suppressions = %d, want 0", len(r.Suppressions))
				}
				loc := r.Locations[0].PhysicalLocation
				if loc.ArtifactLocation.URI != "internal/embed/solve.go" {
					t.Errorf("uri = %q", loc.ArtifactLocation.URI)
				}
				if loc.Region.StartLine != 184 || loc.Region.StartColumn != 3 {
					t.Errorf("region = %d:%d, want 184:3", loc.Region.StartLine, loc.Region.StartColumn)
				}
			},
		},
		{
			name: "suppressed finding is a note with an inSource suppression",
			findings: []analysis.Finding{
				suppressed(finding("wgleak", "internal/serve/manager.go", 42, 2, "goroutine has no join"),
					"best-effort notification"),
			},
			check: func(t *testing.T, log sarifLog) {
				r := log.Runs[0].Results[0]
				if r.Level != "note" {
					t.Errorf("level = %q, want note", r.Level)
				}
				if len(r.Suppressions) != 1 {
					t.Fatalf("suppressions = %d, want 1", len(r.Suppressions))
				}
				s := r.Suppressions[0]
				if s.Kind != "inSource" || s.Justification != "best-effort notification" {
					t.Errorf("suppression = %+v", s)
				}
			},
		},
		{
			name: "directive findings index past the catalog",
			findings: []analysis.Finding{
				finding("directive", "internal/core/x.go", 7, 1, "malformed replint directive"),
			},
			check: func(t *testing.T, log sarifLog) {
				r := log.Runs[0].Results[0]
				if r.RuleIndex != len(analyzers) {
					t.Errorf("ruleIndex = %d, want %d", r.RuleIndex, len(analyzers))
				}
				if got := log.Runs[0].Tool.Driver.Rules[r.RuleIndex].ID; got != "directive" {
					t.Errorf("indexed rule = %q, want directive", got)
				}
			},
		},
		{
			name: "mixed findings keep input order",
			findings: []analysis.Finding{
				finding("wgleak", "a.go", 1, 1, "m1"),
				suppressed(finding("floatcmp", "b.go", 2, 2, "m2"), "r2"),
				finding("ctxstride", "c.go", 3, 3, "m3"),
			},
			check: func(t *testing.T, log sarifLog) {
				got := log.Runs[0].Results
				if len(got) != 3 {
					t.Fatalf("results = %d, want 3", len(got))
				}
				for i, want := range []string{"wgleak", "floatcmp", "ctxstride"} {
					if got[i].RuleID != want {
						t.Errorf("result %d rule = %q, want %q", i, got[i].RuleID, want)
					}
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := sarifReport(analyzers, tc.findings)
			if log.Version != "2.1.0" || log.Schema == "" {
				t.Errorf("version/schema = %q/%q", log.Version, log.Schema)
			}
			// The log must round-trip through encoding/json: code
			// scanning consumes the serialized form.
			raw, err := json.Marshal(log)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back sarifLog
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			tc.check(t, back)
		})
	}
}

// TestSARIFEndToEnd drives the real driver with -sarif over the
// fixture module: output must parse as SARIF, contain both error and
// suppressed-note results, and the exit code must still reflect the
// unsuppressed findings.
func TestSARIFEndToEnd(t *testing.T) {
	root := fixtureRoot(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "-sarif", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	var log sarifLog
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("output is not SARIF: %v", err)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	var errors, notes int
	for _, r := range log.Runs[0].Results {
		switch r.Level {
		case "error":
			errors++
		case "note":
			notes++
			if len(r.Suppressions) == 0 {
				t.Errorf("note result %s has no suppression record", r.RuleID)
			}
		}
		if len(r.Locations) != 1 {
			t.Errorf("result %s has %d locations, want 1", r.RuleID, len(r.Locations))
		}
	}
	if errors == 0 || notes == 0 {
		t.Errorf("errors=%d notes=%d, want both nonzero (fixtures contain fire and suppress cases)", errors, notes)
	}
}
