package lint_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// buildLintTool compiles cmd/ftbfslint into a temp dir and returns the
// binary path and the module root.
func buildLintTool(t *testing.T) (string, string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "ftbfslint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/ftbfslint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ftbfslint: %v\n%s", err, out)
	}
	return tool, root
}

// TestVetToolCleanTree builds cmd/ftbfslint and dogfoods it over the whole
// module through the real `go vet -vettool` protocol: the tree must be
// clean (every genuine finding fixed, every accepted one suppressed with a
// reason). This is also the end-to-end proof of the unit-checker protocol
// implementation — version handshake, -flags probe, config parsing, export
// data import, lock-order facts plumbing — since an error in any of those
// fails the vet run itself.
func TestVetToolCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and type-checks the whole module")
	}
	tool, root := buildLintTool(t)

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	var out bytes.Buffer
	vet.Stdout = &out
	vet.Stderr = &out
	if err := vet.Run(); err != nil {
		t.Fatalf("go vet -vettool=ftbfslint ./... failed: %v\n%s", err, out.String())
	}
	if s := out.String(); len(s) > 0 {
		t.Fatalf("expected a clean tree, vet printed:\n%s", s)
	}
}

// TestUpdateLocksByteStable runs `ftbfslint -update-locks` twice over the
// real tree and requires both runs to reproduce the committed lock files
// byte for byte: regeneration is deterministic, and the committed locks
// are current.
func TestUpdateLocksByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and type-checks the facade and snap packages")
	}
	tool, root := buildLintTool(t)
	lockDir := filepath.Join(root, "internal", "lint", "testdata")
	locks := []string{lint.SnapSchemaLockFile, lint.APISurfaceLockFile}

	committed := make(map[string][]byte)
	for _, name := range locks {
		data, err := os.ReadFile(filepath.Join(lockDir, name))
		if err != nil {
			t.Fatalf("reading committed lock: %v", err)
		}
		committed[name] = data
	}
	// The run rewrites the committed files in place; put them back however
	// the test ends so a failure does not leave the tree dirty.
	defer func() {
		for _, name := range locks {
			os.WriteFile(filepath.Join(lockDir, name), committed[name], 0o644)
		}
	}()

	for run := 1; run <= 2; run++ {
		cmd := exec.Command(tool, "-update-locks")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("ftbfslint -update-locks (run %d): %v\n%s", run, err, out)
		}
		for _, name := range locks {
			got, err := os.ReadFile(filepath.Join(lockDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, committed[name]) {
				t.Errorf("run %d: regenerated %s differs from the committed file; commit the regenerated version (or bump snap.Version first)", run, name)
			}
		}
	}
}

// TestFixtureLocksRoundTrip regenerates the fixture lock files in-process
// into a temp dir and requires byte equality with the committed fixtures:
// the same determinism contract, without a toolchain subprocess.
func TestFixtureLocksRoundTrip(t *testing.T) {
	cases := []struct {
		pkg, lockDir, lockFile string
		cfg                    lint.Config
		analyzer               *lint.Analyzer
	}{
		{
			pkg: "snapschematest/internal/snap", lockDir: "testdata/src/snapschematest",
			lockFile: lint.SnapSchemaLockFile, analyzer: lint.SnapSchema,
		},
		{
			pkg: "apisurfacetest", lockDir: "testdata/src/apisurfacetest",
			lockFile: lint.APISurfaceLockFile, analyzer: lint.APISurface,
			cfg: lint.Config{ModulePath: "apisurfacetest"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			committed, err := os.ReadFile(filepath.Join(tc.lockDir, tc.lockFile))
			if err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			for run := 1; run <= 2; run++ {
				cfg := tc.cfg
				cfg.LockDir = tmp
				cfg.UpdateLocks = true
				if _, err := fixtureLoader().AnalyzeWP(tc.pkg, []*lint.Analyzer{tc.analyzer}, &cfg); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(tmp, tc.lockFile))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, committed) {
					t.Errorf("run %d: regenerated %s differs from committed fixture lock", run, tc.lockFile)
				}
			}
		})
	}
}

// TestProblemMatcherContract plants one hotalloc finding in a scratch
// module and checks what CI needs from the tool under `go vet -vettool`:
// a failing exit status, and the stderr line format the problem matcher
// (.github/ftbfslint-matcher.json) parses, file:line:col: [analyzer] msg.
func TestProblemMatcherContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs go vet on a scratch module")
	}
	tool, root := buildLintTool(t)
	line := matcherRegexp(t, root)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package scratch

// Sum is a hot path that allocates.
//
//ftbfs:hotpath
func Sum(n int32) int32 {
	xs := []int32{n, n}
	return xs[0] + xs[1]
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = dir
	var stderr bytes.Buffer
	vet.Stderr = &stderr
	if err := vet.Run(); err == nil {
		t.Fatalf("expected a failing exit status for a module with findings\nstderr:\n%s", stderr.String())
	}
	matched := 0
	for _, l := range strings.Split(stderr.String(), "\n") {
		if m := line.FindStringSubmatch(l); m != nil {
			matched++
			if !strings.HasSuffix(m[1], "scratch.go") || m[2] != "7" || m[3] != "8" || m[4] != "hotalloc" {
				t.Errorf("finding not at scratch.go:7:8 [hotalloc]: %q", l)
			}
		}
	}
	if matched != 1 {
		t.Errorf("want exactly one problem-matcher line on stderr, got %d:\n%s", matched, stderr.String())
	}
}

// matcherRegexp compiles the line pattern of the committed CI problem
// matcher, so the test pins the tool to the file CI actually loads.
func matcherRegexp(t *testing.T, root string) *regexp.Regexp {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, ".github", "ftbfslint-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string `json:"regexp"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parsing problem matcher: %v", err)
	}
	if len(m.ProblemMatcher) != 1 || len(m.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("problem matcher: want one matcher with one pattern, got %+v", m)
	}
	return regexp.MustCompile(m.ProblemMatcher[0].Pattern[0].Regexp)
}
