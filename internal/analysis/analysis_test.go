package analysis

import (
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The golden fixture module under testdata/src/fixture exercises every
// analyzer in both directions: lines marked `// want <rule>` must yield
// an unsuppressed finding of that rule, lines marked
// `// wantsuppressed <rule>` must yield a finding covered by an
// adjacent //replint:ignore directive, and no other line may yield
// anything. The fixture has its own go.mod so its packages live under
// fixture/internal/... exactly as the real tree's do.

var wantRE = regexp.MustCompile(`//\s*want(suppressed)?\s+([a-z]+(?:,[a-z]+)*)\s*$`)

func TestAnalyzersOnFixtures(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	// Module mode, exactly as cmd/replint runs: the whole fixture
	// module is loaded and summarized once, so ctxstride and wgleak
	// see the same call-graph and polls facts they would in the real
	// tree.
	mod, err := BuildModule(loader)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no fixture packages found under testdata/src/fixture")
	}
	rulesSeen := map[string]bool{}
	// suppressedSeen records rules with a wantsuppressed case that came
	// back suppressed with its reason intact.
	suppressedSeen := map[string]bool{}
	for _, path := range paths {
		t.Run(strings.TrimPrefix(path, "fixture/"), func(t *testing.T) {
			pkg := mod.Package(path)
			if pkg == nil {
				t.Fatalf("package %s missing from the fixture module", path)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture does not type-check: %v", pkg.TypeErrors)
			}

			type key struct {
				file string
				line int
				rule string
			}
			// Parse the expectations out of the fixture sources.
			want := map[key]bool{} // key -> expected Suppressed flag
			for file, src := range pkg.Src {
				for i, line := range strings.Split(string(src), "\n") {
					m := wantRE.FindStringSubmatch(line)
					if m == nil {
						continue
					}
					for _, rule := range strings.Split(m[2], ",") {
						want[key{file, i + 1, rule}] = m[1] != ""
					}
				}
			}
			if len(want) == 0 {
				t.Fatal("fixture package declares no // want expectations")
			}

			got := map[key]Finding{}
			for _, f := range mod.RunPackage(pkg, All()) {
				got[key{f.Pos.Filename, f.Pos.Line, f.Rule}] = f
				rulesSeen[f.Rule] = true
			}

			// Deterministic error order for readable failures.
			keys := make([]key, 0, len(want))
			for k := range want {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				a, b := keys[i], keys[j]
				if a.file != b.file {
					return a.file < b.file
				}
				if a.line != b.line {
					return a.line < b.line
				}
				return a.rule < b.rule
			})
			for _, k := range keys {
				suppressed := want[k]
				f, ok := got[k]
				if !ok {
					t.Errorf("%s:%d: expected %s finding, analyzer reported nothing",
						filepath.Base(k.file), k.line, k.rule)
					continue
				}
				if f.Suppressed != suppressed {
					t.Errorf("%s:%d: %s finding has Suppressed=%v, want %v",
						filepath.Base(k.file), k.line, k.rule, f.Suppressed, suppressed)
				}
				if suppressed && f.Reason == "" {
					t.Errorf("%s:%d: suppressed %s finding lost its directive reason",
						filepath.Base(k.file), k.line, k.rule)
				}
				if suppressed && f.Suppressed && f.Reason != "" {
					suppressedSeen[k.rule] = true
				}
				delete(got, k)
			}
			for k, f := range got {
				t.Errorf("%s:%d: unexpected %s finding: %s",
					filepath.Base(k.file), k.line, k.rule, f.Msg)
			}
		})
	}
	// Every shipped analyzer (plus the directive pseudo-rule) must be
	// exercised by at least one fixture, and every analyzer by at least
	// one //replint:ignore'd case that stays suppressed, so the
	// suppression path of each rule is under test.
	for _, a := range All() {
		if !rulesSeen[a.Name] {
			t.Errorf("no fixture exercises rule %s", a.Name)
		}
		if !suppressedSeen[a.Name] {
			t.Errorf("no fixture has a wantsuppressed case for rule %s", a.Name)
		}
	}
	if !rulesSeen[directiveRule] {
		t.Error("no fixture exercises the malformed-directive report")
	}
}
