package lint_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

var updateLocks = flag.Bool("update-locks", false,
	"rewrite the committed snapschema.lock/apisurface.lock from the tree (use with -run TestLintTree)")

// The module loader type-checks the tree (and the standard library it
// imports) once per test binary; TestLintTree and TestUpdateLocksByteStable
// share it.
var (
	treeOnce   sync.Once
	treeLoader *lint.Loader
	treeRoot   string
)

// moduleLoader returns the shared loader over the module and the module
// root directory.
func moduleLoader() (*lint.Loader, string) {
	treeOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			panic(err)
		}
		treeRoot = root
		treeLoader = lint.NewLoader("repro", root)
	})
	return treeLoader, treeRoot
}

// TestLintTree runs the whole suite over every package `go list ./...`
// reports at the module root (the nested bench module and testdata are
// not among them). Each finding fails the test and prints as
// file:line:col: [analyzer] msg. With -update-locks the lock-file
// analyzers rewrite the committed lock files instead of diffing them.
func TestLintTree(t *testing.T) {
	l, root := moduleLoader()
	list := exec.Command("go", "list", "./...")
	list.Dir = root
	out, err := list.Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("go list ./...: %v\n%s", err, stderr)
	}
	pkgs := strings.Fields(string(out))
	// The lock-file analyzers anchor on these two; without them the lock
	// checks would pass vacuously.
	for _, anchor := range []string{"repro", "repro/internal/snap"} {
		if !slices.Contains(pkgs, anchor) {
			t.Fatalf("go list ./... does not report %s: %v", anchor, pkgs)
		}
	}
	cfg := &lint.Config{
		ModulePath:  "repro",
		LockDir:     filepath.Join(root, "internal", "lint", "testdata"),
		UpdateLocks: *updateLocks,
	}
	for _, pkg := range pkgs {
		diags, err := l.Analyze(pkg, lint.Suite(), cfg)
		if err != nil {
			t.Errorf("%s: %v", pkg, err)
			continue
		}
		for _, d := range diags {
			t.Error(d)
		}
	}
}

// TestUpdateLocksByteStable regenerates both lock files from the real
// tree twice, each time into a fresh temp dir, and requires byte equality
// with the committed files: regeneration is deterministic, and the
// committed locks are current.
func TestUpdateLocksByteStable(t *testing.T) {
	l, root := moduleLoader()
	lockDir := filepath.Join(root, "internal", "lint", "testdata")
	for run := 1; run <= 2; run++ {
		cfg := &lint.Config{ModulePath: "repro", LockDir: t.TempDir(), UpdateLocks: true}
		for _, pkg := range []string{"repro", "repro/internal/snap"} {
			if _, err := l.Analyze(pkg, []*lint.Analyzer{lint.SnapSchema, lint.APISurface}, cfg); err != nil {
				t.Fatalf("run %d: %s: %v", run, pkg, err)
			}
		}
		for _, name := range []string{lint.SnapSchemaLockFile, lint.APISurfaceLockFile} {
			committed, err := os.ReadFile(filepath.Join(lockDir, name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(cfg.LockDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, committed) {
				t.Errorf("run %d: regenerated %s differs from the committed file; regenerate it with -update-locks (or bump snap.Version first)", run, name)
			}
		}
	}
}

// TestFixtureLocksRoundTrip regenerates the fixture lock files into a
// temp dir and requires byte equality with the committed fixtures: the
// same determinism contract on the analyzer fixtures.
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
				if _, err := fixtureLoader().Analyze(tc.pkg, []*lint.Analyzer{tc.analyzer}, &cfg); err != nil {
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
