package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Loader type-checks packages from source for in-process analysis. It is
// the suite's one front end: TestLintTree lints the module through it,
// and the analyzer fixtures and seeded-bug harness load through it.
// Import resolution order:
//
//  1. GOPATH-style SrcDirs roots (<root>/<importpath>/*.go) — the
//     analysistest convention, so fixtures can stub repro/internal/...
//  2. the module mapping (ModulePath -> ModuleDir)
//  3. the standard library, type-checked from GOROOT source with function
//     bodies skipped (works offline, no export data needed), once per
//     process for all Loaders
//
// Only non-test files are loaded: the analyzers check production code,
// and test processes are bounded by definition.
type Loader struct {
	Fset       *token.FileSet
	SrcDirs    []string
	ModulePath string
	ModuleDir  string

	mu      sync.Mutex
	pkgs    map[string]*LoadedPackage
	loading map[string]bool
}

// Every Loader shares one FileSet and one standard library: the lint
// tests build a Loader for the module and several for fixtures, and the
// standard packages they import are the bulk of the type-checking.
var (
	sharedFset = token.NewFileSet()
	std        = &stdImporter{ctxt: build.Default, pkgs: make(map[string]*types.Package)}
)

func init() {
	// The pure-Go build of every package: no cgo run, and the same files
	// whether or not the host has a C toolchain. The exported API, which
	// is all the module's packages see, is the same either way.
	std.ctxt.CgoEnabled = false
}

// LoadedPackage is one type-checked package with its syntax retained.
type LoadedPackage struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewLoader returns a loader over the given fixture roots (searched in
// order before the module mapping).
func NewLoader(modulePath, moduleDir string, srcDirs ...string) *Loader {
	return &Loader{
		Fset:       sharedFset,
		SrcDirs:    srcDirs,
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		pkgs:       make(map[string]*LoadedPackage),
		loading:    make(map[string]bool),
	}
}

// Load type-checks the package with the given import path (resolving its
// directory through SrcDirs then the module mapping) and returns it with
// syntax and full type info.
func (l *Loader) Load(path string) (*LoadedPackage, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.load(path)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom. It is called re-entrantly by
// go/types during l.load, which already holds l.mu.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.resolveDir(path); ok {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	std.Lock()
	defer std.Unlock()
	return std.ImportFrom(path, dir, mode)
}

// stdImporter type-checks standard-library packages from GOROOT source,
// as go/importer's source importer does, and imports among them through
// itself. It finds an import's directory on every call, which vendored
// paths make depend on the importing directory, but reads a directory's
// file list and type-checks its package only once: the source importer
// reads the build header of every file in the directory on every import
// it resolves. It is not safe for concurrent use; callers hold its lock.
type stdImporter struct {
	sync.Mutex
	ctxt build.Context
	pkgs map[string]*types.Package // by directory; nil while it is being checked
}

// ImportFrom implements types.ImporterFrom.
func (s *stdImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	found, err := s.ctxt.Import(path, dir, build.FindOnly)
	if err != nil {
		return nil, err
	}
	if p, ok := s.pkgs[found.Dir]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		return p, nil
	}
	s.pkgs[found.Dir] = nil
	defer func() {
		if s.pkgs[found.Dir] == nil {
			delete(s.pkgs, found.Dir)
		}
	}()
	bp, err := s.ctxt.ImportDir(found.Dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(sharedFset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	// Without function bodies an import used only inside them is unused:
	// a soft error, ignored as the source importer ignores it.
	var hard error
	cfg := types.Config{
		IgnoreFuncBodies: true,
		Importer:         s,
		Sizes:            types.SizesFor(s.ctxt.Compiler, s.ctxt.GOARCH),
		Error: func(err error) {
			if te, ok := err.(types.Error); hard == nil && (!ok || !te.Soft) {
				hard = err
			}
		},
	}
	p, _ := cfg.Check(bp.ImportPath, sharedFset, files, nil)
	if hard != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", bp.ImportPath, hard)
	}
	s.pkgs[found.Dir] = p
	return p, nil
}

// Import implements types.Importer.
func (s *stdImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

// resolveDir maps an import path to a source directory.
func (l *Loader) resolveDir(path string) (string, bool) {
	for _, root := range l.SrcDirs {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir, true
		}
	}
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
		if hasGoFiles(dir) {
			return dir, true
		}
	}
	return "", false
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

func (l *Loader) load(path string) (*LoadedPackage, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.resolveDir(path)
	if !ok {
		return nil, fmt.Errorf("lint: cannot resolve %q to a source directory", path)
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &LoadedPackage{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the package's non-test files in name order (stable
// positions for tests).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Analyze loads the package and runs the given analyzers over it with
// cfg (nil means the zero Config).
func (l *Loader) Analyze(path string, analyzers []*Analyzer, cfg *Config) ([]Diagnostic, error) {
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return runAnalyzers(l.Fset, p.Files, p.Types, p.Info, analyzers, cfg)
}
