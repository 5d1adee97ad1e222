package lint_test

import (
	"sync"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The loader is shared: the source importer type-checks the standard
// library from GOROOT, and paying that once per `go test` run instead of
// once per analyzer keeps the suite fast.
var (
	loaderOnce sync.Once
	loader     *lint.Loader
)

func fixtureLoader() *lint.Loader {
	loaderOnce.Do(func() {
		loader = lint.NewLoader("", "", "testdata/src")
	})
	return loader
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, fixtureLoader(), lint.HotAlloc, "hotalloctest")
}

func TestLockHeld(t *testing.T) {
	linttest.Run(t, fixtureLoader(), lint.LockHeld, "lockheldtest")
}

// TestLockHeldCrossPackage pins rule (b): libb calls liba.Lock1 while
// holding liba's M2.Mu, and liba declares a mutex.
func TestLockHeldCrossPackage(t *testing.T) {
	linttest.RunConfig(t, fixtureLoader(), lint.LockHeld, "lockheldx/libb",
		&lint.Config{ModulePath: "lockheldx"})
}

// TestLockHeldCalleePackage: liba's own nesting (Both) is reported in
// liba, and nothing else there is.
func TestLockHeldCalleePackage(t *testing.T) {
	linttest.RunConfig(t, fixtureLoader(), lint.LockHeld, "lockheldx/liba",
		&lint.Config{ModulePath: "lockheldx"})
}

func TestSnapSchema(t *testing.T) {
	linttest.RunConfig(t, fixtureLoader(), lint.SnapSchema, "snapschematest/internal/snap",
		&lint.Config{LockDir: "testdata/src/snapschematest"})
}

func TestSnapSchemaDrift(t *testing.T) {
	linttest.RunConfig(t, fixtureLoader(), lint.SnapSchema, "snapschemadrift/internal/snap",
		&lint.Config{LockDir: "testdata/src/snapschemadrift"})
}

// TestSnapSchemaVersionBump: the same drift as snapschemadrift, but with
// Version bumped — the declared wire-format change, so no finding.
func TestSnapSchemaVersionBump(t *testing.T) {
	linttest.RunConfig(t, fixtureLoader(), lint.SnapSchema, "snapschemabump/internal/snap",
		&lint.Config{LockDir: "testdata/src/snapschemabump"})
}

func TestAPISurface(t *testing.T) {
	linttest.RunConfig(t, fixtureLoader(), lint.APISurface, "apisurfacetest",
		&lint.Config{ModulePath: "apisurfacetest", LockDir: "testdata/src/apisurfacetest"})
}

func TestAPISurfaceDrift(t *testing.T) {
	linttest.RunConfig(t, fixtureLoader(), lint.APISurface, "apisurfacedrift",
		&lint.Config{ModulePath: "apisurfacedrift", LockDir: "testdata/src/apisurfacedrift"})
}

// TestSuiteOnSeedbed double-checks that the seeded-bug baseline package is
// clean under the full suite (the seeded test depends on it).
func TestSuiteOnSeedbed(t *testing.T) {
	diags, err := fixtureLoader().Analyze("seedbed", lint.Suite(), nil)
	if err != nil {
		t.Fatalf("analyzing seedbed: %v", err)
	}
	for _, d := range diags {
		t.Errorf("seedbed must be clean, got: %s", d)
	}
}
