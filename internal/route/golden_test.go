package route

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/place"
)

// Routing golden suite: the engine golden specs, placed exactly as
// internal/circuits' TestGolden places them, then routed in both
// regimes. TestRouteDeterministic only compares a run with itself; this
// pins the routes to committed bits, so a change to the search order,
// tie-breaking, or congestion negotiation shows up as a diff.
// Regenerate after an intentional routing change with:
//
//	go test ./internal/route/ -run TestRouteGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// routeFingerprint is the committed summary of one regime's result.
type routeFingerprint struct {
	// CritBits is math.Float64bits of the post-route period, in hex.
	CritBits   string `json:"crit_bits"`
	WireLength int    `json:"wire_length"`
	Iterations int    `json:"iterations"`
	Feasible   bool   `json:"feasible"`
	// ConnSHA / UsageSHA hash the sorted ConnLen and TileUsage entries.
	ConnSHA  string `json:"conn_sha256"`
	UsageSHA string `json:"usage_sha256"`
}

type routeGolden struct {
	Infinite  routeFingerprint `json:"infinite"`
	LowStress routeFingerprint `json:"low_stress"`
	Width     int              `json:"low_stress_width"`
}

func fingerprint(res *Result) routeFingerprint {
	conns := make([]string, 0, len(res.ConnLen))
	for c, l := range res.ConnLen {
		conns = append(conns, fmt.Sprintf("%d %d %d %d\n", c.Net, c.Sink.Cell, c.Sink.Input, l))
	}
	sort.Strings(conns)
	use := make([]string, 0, len(res.TileUsage))
	for l, u := range res.TileUsage {
		use = append(use, fmt.Sprintf("%d %d %d\n", l.X, l.Y, u))
	}
	sort.Strings(use)
	digest := func(lines []string) string {
		h := sha256.New()
		for _, s := range lines {
			h.Write([]byte(s))
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	return routeFingerprint{
		CritBits:   fmt.Sprintf("%#016x", math.Float64bits(res.CritPath)),
		WireLength: res.WireLength,
		Iterations: res.Iterations,
		Feasible:   res.Feasible,
		ConnSHA:    digest(conns),
		UsageSHA:   digest(use),
	}
}

func goldenSpecs() []circuits.Spec {
	return []circuits.Spec{
		{Name: "gold-comb", LUTs: 16, Inputs: 4, Outputs: 3, Seed: 41},
		{Name: "gold-seq", LUTs: 14, Inputs: 4, Outputs: 2, RegisteredFrac: 0.3, Seed: 42},
		{Name: "gold-wide", LUTs: 22, Inputs: 6, Outputs: 4, Depth: 3, Seed: 43},
	}
}

func TestRouteGolden(t *testing.T) {
	for _, spec := range goldenSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			nl, err := circuits.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			f := arch.New(8)
			po := place.Defaults()
			po.Effort = 1
			po.Seed = spec.Seed
			pl, err := place.Place(nl, f, po)
			if err != nil {
				t.Fatal(err)
			}
			inf, err := Infinite(nl, pl, f, dm(), Defaults())
			if err != nil {
				t.Fatal(err)
			}
			ls, w, err := LowStress(nl, pl, f, dm(), Defaults())
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(routeGolden{
				Infinite:  fingerprint(inf),
				LowStress: fingerprint(ls),
				Width:     w,
			}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", spec.Name+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("routing fingerprint diverges from %s:\n--- want\n%s--- got\n%s", path, want, got)
			}
		})
	}
}
