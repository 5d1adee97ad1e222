package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestSeededWholeProgramViolations is the seeded-bug harness for the
// analyzers that need module context: each case plants exactly one
// violation into a clean fixture (a nested acquisition, a call into a
// package with a mutex under a lock, a reordered snapshot field, a
// deleted facade export) and asserts the suite reports it — the right
// analyzer, the exact planted line, and nothing else.
func TestSeededWholeProgramViolations(t *testing.T) {
	cases := []struct {
		name       string
		analyzer   string // the analyzer expected to fire
		fixture    string // testdata/src-relative package dir to mutate
		pkg        string // import path of the mutated package
		cfg        *lint.Config
		old, new   string
		wantMsg    string
		lineOffset int  // expected finding line relative to the mutation
		pkgClause  bool // finding anchors at the package clause instead
	}{
		{
			name:     "lockheld-nested",
			analyzer: "lockheld",
			fixture:  "wpseed",
			pkg:      "wpseed",
			cfg:      &lint.Config{ModulePath: "wpseed"},
			// Take S.mu before releasing R.mu in drain.
			old:     "\tr.mu.Unlock()\n\ts.mu.Lock()\n",
			new:     "\ts.mu.Lock()\n\tr.mu.Unlock()\n",
			wantMsg: "s.mu.Lock() acquires lock wpseed.S.mu while holding wpseed.R.mu",
		},
		{
			name:     "lockheld-call",
			analyzer: "lockheld",
			fixture:  "wpseed",
			pkg:      "wpseed",
			cfg:      &lint.Config{ModulePath: "wpseed"},
			// Read the store under R.mu in record.
			old:        "\tn := st.Len()\n\tr.mu.Lock()\n",
			new:        "\tr.mu.Lock()\n\tn := st.Len()\n",
			wantMsg:    "call to store.Store.Len while holding wpseed.R.mu",
			lineOffset: 1,
		},
		{
			name:     "snapschema",
			analyzer: "snapschema",
			fixture:  "snapschematest/internal/snap",
			pkg:      "snapschematest/internal/snap",
			cfg:      &lint.Config{LockDir: "testdata/src/snapschematest"},
			// Reorder Meta's fields: same data, different wire layout.
			old:     "\tName string `json:\"name\"`\n\tSeed int64  `json:\"seed,omitempty\"`\n",
			new:     "\tSeed int64  `json:\"seed,omitempty\"`\n\tName string `json:\"name\"`\n",
			wantMsg: "snapshot schema drift in struct internal/snap.Meta",
		},
		{
			name:     "apisurface",
			analyzer: "apisurface",
			fixture:  "apisurfacetest",
			pkg:      "apisurfacetest",
			cfg:      &lint.Config{ModulePath: "apisurfacetest", LockDir: "testdata/src/apisurfacetest"},
			// Delete an exported constructor; the removal is anchored at
			// the package clause (the declaration no longer exists).
			old:       "func New() *Counter { return &Counter{} }\n",
			new:       "",
			wantMsg:   "exported func New has been removed but is still recorded in apisurface.lock",
			pkgClause: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean := readFixture(t, tc.fixture)
			if n := strings.Count(clean, tc.old); n != 1 {
				t.Fatalf("mutation anchor occurs %d times in %s, need exactly 1:\n%q", n, tc.fixture, tc.old)
			}

			if diags := analyzeWPSeed(t, tc.fixture, tc.pkg, clean, tc.cfg); len(diags) != 0 {
				t.Fatalf("unmutated %s must be clean, got:\n%s", tc.fixture, formatDiags(diags))
			}

			mutated := strings.Replace(clean, tc.old, tc.new, 1)
			diags := analyzeWPSeed(t, tc.fixture, tc.pkg, mutated, tc.cfg)
			if len(diags) != 1 {
				t.Fatalf("seeded %s violation: want exactly 1 finding, got %d:\n%s",
					tc.name, len(diags), formatDiags(diags))
			}
			d := diags[0]
			if d.Analyzer != tc.analyzer {
				t.Errorf("seeded %s violation reported by %q, want %q: %s", tc.name, d.Analyzer, tc.analyzer, d)
			}
			if !strings.Contains(d.Message, tc.wantMsg) {
				t.Errorf("finding %q does not mention %q", d.Message, tc.wantMsg)
			}
			wantLine := 0
			if tc.pkgClause {
				wantLine = lineOf(mutated, "package ")
			} else {
				wantLine = mutationLine(mutated, tc.new) + tc.lineOffset
			}
			if d.Pos.Line != wantLine {
				t.Errorf("finding at line %d, planted violation at line %d: %s", d.Pos.Line, wantLine, d)
			}
		})
	}
}

// readFixture loads the (single) Go file of a fixture package directory.
func readFixture(t *testing.T, fixture string) string {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(fixture))
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var src []byte
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".go") {
			if src != nil {
				t.Fatalf("fixture %s has more than one Go file", fixture)
			}
			src, err = os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if src == nil {
		t.Fatalf("fixture %s has no Go file", fixture)
	}
	return string(src)
}

// analyzeWPSeed writes src as the fixture package into a temp source root
// shadowing testdata/src (sibling fixture packages and lock dirs still
// resolve from the committed tree) and runs the full suite with the
// case's config.
func analyzeWPSeed(t *testing.T, fixture, pkg, src string, cfg *lint.Config) []lint.Diagnostic {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, filepath.FromSlash(fixture))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seed.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := lint.NewLoader("", "", root, "testdata/src")
	diags, err := l.Analyze(pkg, lint.Suite(), cfg)
	if err != nil {
		t.Fatalf("analyzing mutated %s: %v", fixture, err)
	}
	return diags
}

// lineOf is the 1-based line of the first occurrence of needle.
func lineOf(src, needle string) int {
	off := strings.Index(src, needle)
	if off < 0 {
		return -1
	}
	return 1 + strings.Count(src[:off], "\n")
}
