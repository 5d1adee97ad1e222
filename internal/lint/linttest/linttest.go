// Package linttest is a miniature analysistest: it runs one analyzer over
// a fixture package and diffs the findings against `// want "regex"`
// comments placed on the offending lines. Both analysistest literal forms
// are accepted (backquoted and double-quoted); several wants on one line
// each need a matching finding and vice versa, so fixtures pin both
// positives (flagged) and negatives (silence everywhere else).
package linttest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

var wantRe = regexp.MustCompile("want ((?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")(?:[ \t]+(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"))*)")
var wantLitRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run analyzes pkgPath through the loader and reports fixture mismatches
// on t. Findings are matched as "[analyzer] message" so fixtures may pin
// the analyzer name too.
func Run(t *testing.T, l *lint.Loader, a *lint.Analyzer, pkgPath string) {
	t.Helper()
	RunConfig(t, l, a, pkgPath, nil)
}

// RunConfig is Run with an explicit Config (module path, lock dir).
func RunConfig(t *testing.T, l *lint.Loader, a *lint.Analyzer, pkgPath string, cfg *lint.Config) {
	t.Helper()
	p, err := l.Load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	diags, err := l.Analyze(pkgPath, []*lint.Analyzer{a}, cfg)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
	}

	var wants []*expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				for _, lit := range wantLitRe.FindAllString(m[1], -1) {
					pat, err := unquote(lit)
					if err != nil {
						t.Fatalf("%s: bad want literal %s: %v", pos, lit, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		text := fmt.Sprintf("[%s] %s", d.Analyzer, d.Message)
		matched := false
		for _, w := range wants {
			if !w.met && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func unquote(lit string) (string, error) {
	if strings.HasPrefix(lit, "`") {
		return strings.Trim(lit, "`"), nil
	}
	return strconv.Unquote(lit)
}
