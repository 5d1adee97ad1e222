package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestSeededViolations plants one violation per intraprocedural analyzer
// into the clean seedbed fixture and asserts the full suite reports
// exactly that violation: the right analyzer, the right line, and nothing
// else. This is the end-to-end proof that the analyzer catches the
// regression class it was built for, not just the shapes its own fixture
// happens to pin.
func TestSeededViolations(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "src", "seedbed", "seedbed.go"))
	if err != nil {
		t.Fatalf("reading seedbed fixture: %v", err)
	}
	clean := string(src)

	cases := []struct {
		name     string // also the analyzer expected to fire
		old, new string // exact one-occurrence source mutation
		wantMsg  string // substring of the single expected finding
	}{
		{
			name:    "hotalloc",
			old:     "\treturn acc\n}",
			new:     "\treturn acc + []int32{1}[0]\n}",
			wantMsg: "slice literal",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := strings.Count(clean, tc.old); n != 1 {
				t.Fatalf("mutation anchor occurs %d times in seedbed, need exactly 1:\n%q", n, tc.old)
			}
			mutated := strings.Replace(clean, tc.old, tc.new, 1)
			diags := analyzeSeed(t, mutated)
			if len(diags) != 1 {
				t.Fatalf("seeded %s violation: want exactly 1 finding, got %d:\n%s",
					tc.name, len(diags), formatDiags(diags))
			}
			d := diags[0]
			if d.Analyzer != tc.name {
				t.Errorf("seeded %s violation reported by %q: %s", tc.name, d.Analyzer, d)
			}
			if !strings.Contains(d.Message, tc.wantMsg) {
				t.Errorf("finding %q does not mention %q", d.Message, tc.wantMsg)
			}
			if wantLine := mutationLine(mutated, tc.new); d.Pos.Line != wantLine {
				t.Errorf("finding at line %d, mutation at line %d: %s", d.Pos.Line, wantLine, d)
			}
		})
	}

	t.Run("clean", func(t *testing.T) {
		if diags := analyzeSeed(t, clean); len(diags) != 0 {
			t.Fatalf("unmutated seedbed must be clean, got:\n%s", formatDiags(diags))
		}
	})
}

// analyzeSeed writes src as its own seedbed package in a temp source root
// and runs the full suite over it; the stub repro packages still resolve
// from testdata/src.
func analyzeSeed(t *testing.T, src string) []lint.Diagnostic {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "seedbed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seedbed.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := lint.NewLoader("", "", filepath.Dir(dir), "testdata/src")
	diags, err := l.Analyze("seedbed", lint.Suite(), nil)
	if err != nil {
		t.Fatalf("analyzing mutated seedbed: %v", err)
	}
	return diags
}

// mutationLine returns the 1-based line of the first line of the replaced
// text inside the mutated source.
func mutationLine(mutated, inserted string) int {
	off := strings.Index(mutated, inserted)
	if off < 0 {
		return -1
	}
	// Skip the leading newline-less prefix: the anchor starts after the
	// last newline before off.
	return 1 + strings.Count(mutated[:off], "\n")
}

func formatDiags(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  ")
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}
