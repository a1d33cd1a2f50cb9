package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// fixtureRoot is the analysis fixture module: a self-contained go.mod
// tree with known findings in every rule.
func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestModuleRelativePaths runs replint against the fixture module from
// several working directories and directories passed via -C: finding
// paths must come out module-relative with forward slashes regardless,
// so editor jump-to-line and the CI problem matcher work from anywhere.
func TestModuleRelativePaths(t *testing.T) {
	root := fixtureRoot(t)
	sub := filepath.Join(root, "internal", "timing")
	cases := []struct {
		name  string
		chdir string // t.Chdir target; "" stays put
		argv  []string
	}{
		{"dash-C-module-root", "", []string{"-C", root, "./..."}},
		{"dash-C-subdirectory", "", []string{"-C", sub, "./..."}},
		{"cwd-module-root", root, []string{"./..."}},
		{"cwd-subdirectory", sub, []string{"./..."}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.chdir != "" {
				t.Chdir(tc.chdir)
			}
			var stdout, stderr bytes.Buffer
			code := run(tc.argv, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1 (fixtures contain findings); stderr:\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if len(lines) == 0 || lines[0] == "" {
				t.Fatal("no findings printed")
			}
			for _, line := range lines {
				if strings.Contains(line, "\\") {
					t.Errorf("finding path contains a backslash: %q", line)
				}
				if !strings.HasPrefix(line, "internal/") {
					t.Errorf("finding path is not module-relative: %q", line)
				}
			}
		})
	}
}

// TestJSONOutput decodes -json output and checks the wire contract:
// a {findings} envelope with module-relative files, populated
// positions, suppressed findings included and flagged with their
// directive reason, in the total (file, line, col, rule, msg) order.
// A second run over the same tree must emit byte-identical output.
func TestJSONOutput(t *testing.T) {
	root := fixtureRoot(t)
	runJSON := func() []byte {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-C", root, "-json", "./..."}, &stdout, &stderr)
		if code != 1 {
			t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
		}
		return stdout.Bytes()
	}
	raw := runJSON()
	var out jsonOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("output is not a JSON {findings} object: %v\n%s", err, raw)
	}
	findings := out.Findings
	if len(findings) == 0 {
		t.Fatal("JSON output is empty; fixtures contain findings")
	}
	if !sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	}) {
		t.Error("findings are not globally sorted by (file, line, col, rule, msg)")
	}
	if again := runJSON(); !bytes.Equal(raw, again) {
		t.Errorf("second run differs from the first:\nfirst  %s\nsecond %s", raw, again)
	}
	var suppressed, unsuppressed int
	for _, f := range findings {
		if f.File == "" || filepath.IsAbs(f.File) || strings.Contains(f.File, "\\") {
			t.Errorf("file %q is not a module-relative forward-slash path", f.File)
		}
		if f.Line <= 0 || f.Col <= 0 {
			t.Errorf("%s: missing position: line=%d col=%d", f.File, f.Line, f.Col)
		}
		if f.Rule == "" || f.Msg == "" {
			t.Errorf("%s:%d: empty rule or message", f.File, f.Line)
		}
		if f.Suppressed {
			suppressed++
			if f.Reason == "" {
				t.Errorf("%s:%d: suppressed finding lost its directive reason", f.File, f.Line)
			}
		} else {
			unsuppressed++
		}
	}
	if suppressed == 0 {
		t.Error("no suppressed findings in JSON output; fixtures have wantsuppressed lines")
	}
	if unsuppressed == 0 {
		t.Error("no unsuppressed findings in JSON output")
	}
}

// TestRulesCatalog checks that every shipped rule appears in -rules.
func TestRulesCatalog(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-rules exit code = %d, want 0", code)
	}
	for _, a := range analysis.All() {
		if !strings.Contains(stdout.String(), a.Name+"\n") {
			t.Errorf("-rules catalog is missing %s", a.Name)
		}
	}
	for _, directive := range []string{"replint:ignore", "replint:metadata"} {
		if !strings.Contains(stdout.String(), directive) {
			t.Errorf("-rules catalog does not document //%s", directive)
		}
	}
}

// TestProblemMatcherMatchesCatalog keeps the CI problem matcher in step
// with the rule catalog: its rule alternation must list exactly the
// shipped rules plus the reserved directive rule, and it must parse a
// finding of each into file, line, column, rule and message. A rule
// missing from the alternation would never annotate a PR diff.
func TestProblemMatcherMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", ".github", "replint-problem-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string `json:"regexp"`
				Code   int    `json:"code"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.ProblemMatcher) != 1 || len(m.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("want one matcher with one pattern, got %+v", m)
	}
	pat := m.ProblemMatcher[0].Pattern[0]
	alt := regexp.MustCompile(`\(((?:[a-z]+\|)+[a-z]+)\)`).FindStringSubmatch(pat.Regexp)
	if alt == nil {
		t.Fatalf("no rule alternation in matcher regexp %q", pat.Regexp)
	}
	got := strings.Split(alt[1], "|")
	want := []string{"directive"}
	for _, a := range analysis.All() {
		want = append(want, a.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("matcher rules = %v, want the catalog plus directive: %v", got, want)
	}

	re := regexp.MustCompile(pat.Regexp)
	for _, rule := range want {
		line := "internal/embed/solve.go:12:3: " + rule + ": a message: with colons"
		sub := re.FindStringSubmatch(line)
		if sub == nil || pat.Code >= len(sub) || sub[pat.Code] != rule {
			t.Errorf("matcher does not parse %q as rule %s: %q", line, rule, sub)
		}
	}
}
