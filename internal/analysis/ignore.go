package analysis

import (
	"go/ast"
	"regexp"
	"strconv"
	"strings"
)

// replint honors two comment directives:
//
//	//replint:ignore rule1,rule2 -- reason
//	    Suppresses findings of the listed rules. A trailing comment
//	    suppresses findings on its own line; a comment alone on a line
//	    suppresses findings on the line below it. The "-- reason" part
//	    is mandatory: a suppression without a written justification is
//	    itself reported (rule "directive") and cannot be silenced.
//
//	//replint:floatcmp-helper
//	    Placed in a function's doc comment, designates that function as
//	    one of the blessed comparison helpers: exact float comparisons
//	    inside it are allowed (see the floatcmp rule).
//
// Any other //replint: comment is reported as a malformed directive.

// directiveRule is the reserved rule ID for malformed directives.
const directiveRule = "directive"

var ignoreRE = regexp.MustCompile(`^//replint:ignore\s+([A-Za-z0-9_,]+)\s+--\s+(\S.*)$`)

// helperDirective is the marker for designated float-compare helpers.
const helperDirective = "//replint:floatcmp-helper"

// parsedDirective is the outcome of parsing one //replint: comment.
type parsedDirective struct {
	// Kind is "ignore" or "helper" for a well-formed directive; empty
	// when Err is set.
	Kind string
	// Rules holds the rule IDs an ignore directive suppresses.
	Rules []string
	// Reason is the justification text of an ignore directive.
	Reason string
	// Err is the malformed-directive message, empty when well-formed.
	Err string
}

// parseDirective parses one comment's text. The second result is false
// when the comment is not a replint directive at all. It is the single
// syntax authority for every directive form, tolerant of CRLF sources
// (a trailing \r never changes the verdict).
func parseDirective(text string) (parsedDirective, bool) {
	text = strings.TrimRight(text, "\r")
	if !strings.HasPrefix(text, "//replint:") {
		return parsedDirective{}, false
	}
	if strings.HasPrefix(text, helperDirective) {
		return parsedDirective{Kind: "helper"}, true
	}
	m := ignoreRE.FindStringSubmatch(text)
	if m == nil {
		return parsedDirective{Err: `malformed replint directive; want "//replint:ignore rule[,rule...] -- reason"`}, true
	}
	return parsedDirective{Kind: "ignore", Rules: strings.Split(m[1], ","), Reason: m[2]}, true
}

// directives indexes the parsed ignore directives of one package.
type directives struct {
	// byLine maps filename -> line -> suppressions effective there.
	byLine    map[string]map[int][]ignoreEntry
	malformed []Finding
}

type ignoreEntry struct {
	rules  []string
	reason string
}

// collectDirectives scans every comment of the package for replint
// directives and computes the lines each one covers.
func collectDirectives(pkg *Package) *directives {
	d := &directives{byLine: map[string]map[int][]ignoreEntry{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d.addComment(pkg, c)
			}
		}
	}
	return d
}

func (d *directives) addComment(pkg *Package, c *ast.Comment) {
	pd, ok := parseDirective(c.Text)
	if !ok {
		return
	}
	pos := pkg.Fset.Position(c.Pos())
	if pd.Err != "" {
		d.malformed = append(d.malformed, Finding{Pos: pos, Rule: directiveRule, Msg: pd.Err})
		return
	}
	if pd.Kind != "ignore" {
		return // helper directives are resolved by floatcmp
	}
	// An ignore naming a rule that does not exist would sit silently
	// forever (typo, or a rule renamed after the directive was written);
	// report it so stale suppressions cannot rot. The directive still
	// suppresses its valid rule names.
	for _, r := range pd.Rules {
		if !knownRules[r] {
			d.malformed = append(d.malformed, Finding{Pos: pos, Rule: directiveRule,
				Msg: "replint directive names unknown rule " + strconv.Quote(r) +
					"; it will never match a finding (run `replint -rules` for the catalog)"})
		}
	}
	entry := ignoreEntry{rules: pd.Rules, reason: pd.Reason}
	// A comment with code before it on its line shields that line; a
	// comment alone on its line shields the next line.
	line := pos.Line
	if standaloneComment(pkg.Src[pos.Filename], pos.Offset) {
		line++
	}
	if d.byLine[pos.Filename] == nil {
		d.byLine[pos.Filename] = map[int][]ignoreEntry{}
	}
	d.byLine[pos.Filename][line] = append(d.byLine[pos.Filename][line], entry)
}

// standaloneComment reports whether only whitespace precedes the
// comment (starting at the given byte offset) on its source line.
func standaloneComment(src []byte, offset int) bool {
	if offset > len(src) {
		return false
	}
	for i := offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
			continue
		default:
			return false
		}
	}
	return true // comment starts the file
}

// suppressed reports whether a finding of rule at file:line is covered
// by a directive, and returns the directive's reason.
func (d *directives) suppressed(file string, line int, rule string) (string, bool) {
	for _, e := range d.byLine[file][line] {
		for _, r := range e.rules {
			if r == rule {
				return e.reason, true
			}
		}
	}
	return "", false
}

// isHelperFunc reports whether the function declaration carries the
// floatcmp-helper designation in its doc comment.
func isHelperFunc(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, helperDirective) {
			return true
		}
	}
	return false
}
