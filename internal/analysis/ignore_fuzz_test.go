package analysis

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParseDirective hammers the single syntax authority for replint
// comment directives. The invariants hold for every input, not just
// well-formed ones:
//
//   - only //replint:-prefixed comments are directives at all;
//   - every replint-prefixed comment parses to exactly one of the two
//     kinds or a malformed-directive error, never silence; the retired
//     metadata and guarded forms are malformed;
//   - a trailing \r (CRLF sources) never changes the verdict;
//   - well-formed results carry the fields their kind promises, and
//     parsing never panics on any byte soup.
func FuzzParseDirective(f *testing.F) {
	seeds := []string{
		"//replint:ignore floatcmp -- bitwise tie is the intended semantics",
		"//replint:ignore floatcmp,wgleak -- two rules, one reason",
		"//replint:ignore floatcmp --",
		"//replint:ignore floatcmp",
		"//replint:ignore -- no rules",
		"//replint:ignore rule -- reason\r",
		"//replint:metadata -- wall-clock diagnostics only",
		"//replint:metadata --   ",
		"//replint:metadata",
		"//replint:floatcmp-helper",
		"//replint:floatcmp-helper trailing words",
		"//replint:guarded gen=builtGen",
		"//replint:guarded gen=builtGen\r",
		"//replint:guarded gen=",
		"//replint:guarded gen=1bad",
		"//replint:guarded gen=a gen=b",
		"//replint:guarded gen=a,gen=b",
		"//replint:guarded",
		"//replint:guarded  gen=x  ",
		"//replint:unknown gen=x",
		"//replint:",
		"// plain comment",
		"//replint:ignore a -- r\n//replint:ignore b -- s",
		"//replint:guarded gen=é",
		"//replint:ignore a\x00b -- r",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, text string) {
		pd, ok := parseDirective(text)

		trimmed := strings.TrimRight(text, "\r")
		if strings.HasPrefix(trimmed, "//replint:") != ok {
			t.Fatalf("ok=%v disagrees with //replint: prefix for %q", ok, text)
		}
		if !ok {
			if pd.Kind != "" || pd.Err != "" || pd.Rules != nil {
				t.Fatalf("non-directive %q returned non-zero result %+v", text, pd)
			}
			return
		}

		if (strings.HasPrefix(trimmed, "//replint:metadata") || strings.HasPrefix(trimmed, "//replint:guarded")) && pd.Err == "" {
			t.Fatalf("retired directive %q parsed as %q", text, pd.Kind)
		}

		// Exactly one of (kind, error) — never both, never neither.
		if (pd.Kind == "") == (pd.Err == "") {
			t.Fatalf("parse of %q: kind=%q err=%q — want exactly one set", text, pd.Kind, pd.Err)
		}

		switch pd.Kind {
		case "ignore":
			if len(pd.Rules) == 0 || pd.Reason == "" {
				t.Fatalf("ignore directive %q parsed without rules or reason: %+v", text, pd)
			}
			for _, r := range pd.Rules {
				if strings.ContainsAny(r, " \t") {
					t.Fatalf("rule %q of %q contains whitespace", r, text)
				}
			}
		case "helper":
			// Nothing else promised.
		case "":
			// Malformed: the error must be a complete message.
			if !strings.Contains(pd.Err, "replint directive") {
				t.Fatalf("malformed directive %q has unhelpful error %q", text, pd.Err)
			}
		default:
			t.Fatalf("unknown kind %q for %q", pd.Kind, text)
		}

		// CRLF invariance: one more trailing \r never changes the
		// outcome.
		pd2, ok2 := parseDirective(text + "\r")
		if ok2 != ok || pd2.Kind != pd.Kind || pd2.Err != pd.Err ||
			pd2.Reason != pd.Reason ||
			strings.Join(pd2.Rules, ",") != strings.Join(pd.Rules, ",") {
			t.Fatalf("trailing \\r changed verdict for %q: %+v vs %+v", text, pd, pd2)
		}

		// Determinism: same input, same output.
		pd3, ok3 := parseDirective(text)
		if ok3 != ok || pd3.Kind != pd.Kind || pd3.Err != pd.Err {
			t.Fatalf("parseDirective is nondeterministic for %q", text)
		}

		_ = utf8.ValidString(text) // invalid UTF-8 must have been handled above without panicking
	})
}
