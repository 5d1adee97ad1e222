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

func TestLockOrder(t *testing.T) {
	linttest.Run(t, fixtureLoader(), lint.LockOrder, "lockordertest")
}

// TestLockOrderCrossPackage pins the facts side channel: the cycle spans
// liba and libb and is only visible in the merged edge graph.
func TestLockOrderCrossPackage(t *testing.T) {
	linttest.Run(t, fixtureLoader(), lint.LockOrder, "lockorderx/libb")
}

// TestLockOrderHalfCycleSilent: liba alone holds only one direction of
// the cycle and must not report.
func TestLockOrderHalfCycleSilent(t *testing.T) {
	linttest.Run(t, fixtureLoader(), lint.LockOrder, "lockorderx/liba")
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
	diags, err := fixtureLoader().Analyze("seedbed", lint.Suite())
	if err != nil {
		t.Fatalf("analyzing seedbed: %v", err)
	}
	for _, d := range diags {
		t.Errorf("seedbed must be clean, got: %s", d)
	}
}
