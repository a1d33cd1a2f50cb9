package serve

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/flow"
)

// FuzzDecodeSpec throws arbitrary bytes at the job-spec decoder and
// the spec validator: both must reject garbage with an error, never a
// panic, and an accepted spec must survive re-validation (decode is
// deterministic and side-effect free).
func FuzzDecodeSpec(f *testing.F) {
	f.Add(`{"circuit":"ex5p"}`)
	f.Add(`{"circuit":"ex5p","algo":"lex3","scale":0.2,"seed":7}`)
	f.Add(`{"netlist":"circuit t\ninput a\noutput o a\n"}`)
	f.Add(`{"circuit":"ex5p","unknown_field":1}`)
	f.Add(`{"circuit":"ex5p","netlist":"x"}`)
	f.Add(`{"timeout_ms":-5}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`[1,2,3]`)
	f.Add(`{"scale":1e309}`)
	f.Add(`{"circuit":"ex5p","effort":1e308}`)
	f.Add("{\"circuit\":\"\x00\xff\"}")
	// Racing / QoS surface: unknown variant names, empty and duplicate
	// variant lists, NaN-adjacent / zero / negative bounds, bad classes.
	f.Add(`{"circuit":"ex5p","algo":"race"}`)
	f.Add(`{"circuit":"ex5p","algo":"race","race_variants":[]}`)
	f.Add(`{"circuit":"ex5p","algo":"race","race_variants":["lex3","lex3","LEX3"]}`)
	f.Add(`{"circuit":"ex5p","algo":"race","race_variants":["fastest"]}`)
	f.Add(`{"circuit":"ex5p","algo":"race","race_variants":["vpr"]}`)
	f.Add(`{"circuit":"ex5p","algo":"race","race_variants":[""]}`)
	f.Add(`{"circuit":"ex5p","algo":"race","period_bound":0}`)
	f.Add(`{"circuit":"ex5p","algo":"race","period_bound":-3.5}`)
	f.Add(`{"circuit":"ex5p","algo":"race","period_bound":1e309}`)
	f.Add(`{"circuit":"ex5p","algo":"race","period_bound":"nan"}`)
	f.Add(`{"circuit":"ex5p","race_variants":["rt"]}`)
	f.Add(`{"circuit":"ex5p","qos":"deadline"}`)
	f.Add(`{"circuit":"ex5p","qos":"Best-Effort"}`)
	f.Add(`{"circuit":"ex5p","qos":"urgent"}`)
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := DecodeSpec(strings.NewReader(body))
		if err != nil {
			return
		}
		verr := spec.Validate()
		if verr == nil {
			// Validation must be stable: a spec accepted once is
			// accepted again (no hidden state).
			if again := spec.Validate(); again != nil {
				t.Fatalf("Validate flapped on %q: nil then %v", body, again)
			}
			// A valid spec's normal form must itself be valid and a
			// fixed point — racing folds the variant list here, and the
			// cluster hash assumes the fold converges in one step.
			n := spec.Normalized()
			if nerr := n.Validate(); nerr != nil {
				t.Fatalf("Normalized spec of %q invalid: %v", body, nerr)
			}
			if n2 := n.Normalized(); !reflect.DeepEqual(n2, n) {
				t.Fatalf("Normalized not idempotent on %q: %+v vs %+v", body, n, n2)
			}
			if n.IsRace() {
				// The folded list must be non-empty, duplicate-free,
				// and strictly ascending in canonical racing order.
				if len(n.RaceVariants) == 0 {
					t.Fatalf("race spec %q normalized to an empty variant list", body)
				}
				canon := flow.EngineAlgorithmNames()
				prev := -1
				for _, v := range n.RaceVariants {
					o := slices.Index(canon, v)
					if o < 0 {
						t.Fatalf("race spec %q kept non-canonical variant %q", body, v)
					}
					if o <= prev {
						t.Fatalf("race spec %q variants out of canonical order: %v", body, n.RaceVariants)
					}
					prev = o
				}
			}
		}
	})
}
