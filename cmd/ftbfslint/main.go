// Command ftbfslint runs the repo's static-analysis suite
// (repro/internal/lint) over Go packages. It speaks the `go vet -vettool`
// unit-checker protocol, so the canonical invocation is
//
//	go build -o ftbfslint ./cmd/ftbfslint
//	go vet -vettool=$PWD/ftbfslint ./...
//
// in which mode the go command invokes this binary once per package with a
// JSON config file describing the package's sources and the export data of
// its dependencies. The whole-program analyzers ride the same protocol:
// lock-order facts are serialized to each package's vetx output and read
// back from dependencies' vetx files, so cross-package acquisition edges
// survive the per-package invocation model (and the go command's vet
// cache). Findings print on stderr as `file:line:col: [analyzer] msg`.
//
// Run directly, the binary has one mode of its own:
//
//	ftbfslint -update-locks   regenerate snapschema.lock/apisurface.lock
//
// Exit status: 0 no findings, 1 tool error, 2 findings (matching vet).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

var (
	flagV           = flag.String("V", "", "print version and exit (the go command's vettool handshake)")
	flagFlags       = flag.Bool("flags", false, "print the tool's flag set as JSON and exit")
	flagUpdateLocks = flag.Bool("update-locks", false, "regenerate snapschema.lock/apisurface.lock instead of checking them")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	switch {
	case *flagV != "":
		printVersion()
	case *flagFlags:
		printFlags()
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(unitCheck(args[0]))
	case *flagUpdateLocks:
		regenerateLocks()
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=/abs/path/to/ftbfslint [packages]\n")
	fmt.Fprintf(os.Stderr, "       ftbfslint -update-locks\n\nanalyzers:\n")
	for _, a := range lint.Suite() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nsuppress a finding with //lint:ignore <analyzer> <reason> on or above its line\n")
	os.Exit(2)
}

// printVersion implements the -V=full handshake the go command uses to
// fingerprint vet tools for build caching: the tool must print one line
// ending in a content hash of itself.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)[:12]))
	os.Exit(0)
}

// printFlags answers the go command's -flags probe. Declared flags become
// acceptable on the `go vet` command line, are forwarded to every unit
// invocation, and enter the vet cache key (so `-update-locks` runs are
// never served from a stale cache).
func printFlags() {
	type toolFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	out := []toolFlag{
		{"update-locks", true, "regenerate snapschema.lock/apisurface.lock instead of checking them"},
	}
	data, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	os.Exit(0)
}

// vetConfig is the JSON the go command writes for each package when
// driving a -vettool (the unitchecker wire format).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	Standard                  map[string]bool
	ModulePath                string
	ModuleVersion             string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// importerFunc adapts a closure to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func unitCheck(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("parsing vet config %s: %w", cfgFile, err))
	}
	deps := readDepFacts(cfg.PackageVetx)

	// VetxOnly: the go command only needs this package's facts for a
	// downstream target. Lock-scope packages get the real extraction;
	// everything else forwards its dependencies' edges without even
	// parsing, so the pre-pass stays cheap on the long tail.
	if cfg.VetxOnly && !lint.LockScopePath(cfg.ImportPath) {
		writeFacts(cfg.VetxOutput, lint.PassthroughFacts(cfg.ImportPath, deps))
		return 0
	}

	fset, files, pkg, info, ret := typecheckUnit(&cfg)
	if files == nil {
		// Typecheck failed with SucceedOnTypecheckFailure; still satisfy
		// the facts contract so downstream units load.
		writeFacts(cfg.VetxOutput, lint.PassthroughFacts(cfg.ImportPath, deps))
		return ret
	}

	if cfg.VetxOnly {
		writeFacts(cfg.VetxOutput, lint.ComputeLockFacts(fset, files, pkg, info, deps))
		return 0
	}

	lcfg := &lint.Config{
		ModulePath:  cfg.ModulePath,
		LockDir:     findLockDir(cfg.Dir),
		UpdateLocks: *flagUpdateLocks,
		Deps:        deps,
	}
	diags, err := lint.RunAnalyzers(fset, files, pkg, info, lint.Suite(), lcfg)
	if err != nil {
		fatal(err)
	}
	facts := lcfg.Facts
	if facts == nil {
		facts = lint.PassthroughFacts(cfg.ImportPath, deps)
	}
	writeFacts(cfg.VetxOutput, facts)

	if len(diags) == 0 {
		return 0
	}
	// This line format is what the CI problem matcher parses.
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	return 2
}

// typecheckUnit parses and type-checks the unit's sources against its
// dependencies' compiler export data. On tolerated failure it returns a
// nil file slice and the process exit code.
func typecheckUnit(cfg *vetConfig) (*token.FileSet, []*ast.File, *types.Package, *types.Info, int) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return fset, nil, nil, nil, 0
			}
			fatal(err)
		}
		files = append(files, f)
	}

	// Dependencies arrive as compiler export data: ImportMap resolves the
	// source-level import path to the canonical package path, PackageFile
	// locates that package's export file.
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		canonical, ok := cfg.ImportMap[path]
		if !ok {
			return nil, fmt.Errorf("cannot resolve import %q", path)
		}
		return compilerImporter.Import(canonical)
	})

	info := newTypeInfo()
	tcfg := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return fset, nil, nil, nil, 0
		}
		fatal(fmt.Errorf("type-checking %s: %w", cfg.ImportPath, err))
	}
	return fset, files, pkg, info, 0
}

func newTypeInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// readDepFacts loads the lock-order facts of every dependency's vetx
// file, in deterministic (path-sorted) order. Absent or empty files —
// packages built by an older tool, or std packages vetted without
// facts — decode to nil and are skipped.
func readDepFacts(vetx map[string]string) []*lint.PackageFacts {
	paths := make([]string, 0, len(vetx))
	for p := range vetx {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var deps []*lint.PackageFacts
	for _, p := range paths {
		data, err := os.ReadFile(vetx[p])
		if err != nil {
			continue
		}
		if f := lint.DecodeFacts(data); f != nil {
			deps = append(deps, f)
		}
	}
	return deps
}

// writeFacts satisfies the go command's facts contract: the vetx output
// file must exist for the unit's result to be cached.
func writeFacts(path string, facts *lint.PackageFacts) {
	if path == "" {
		return
	}
	if err := os.WriteFile(path, lint.EncodeFacts(facts), 0o666); err != nil {
		fatal(err)
	}
}

// findLockDir walks up from the unit's directory to the module root (the
// directory holding go.mod) and returns its lock-file directory, or ""
// when there is none — which disables the schema-lock analyzers, e.g.
// when vetting a checkout that predates them.
func findLockDir(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			ld := filepath.Join(d, "internal", "lint", "testdata")
			if st, err := os.Stat(ld); err == nil && st.IsDir() {
				return ld
			}
			return ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return ""
		}
		d = parent
	}
}

// ---- lock regeneration ----

// listedPkg is the slice of `go list -json` output regenerateLocks needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
}

// regenerateLocks rewrites both lock files from the current tree. It goes
// through `go list -export -deps` rather than `go vet` so regeneration is
// a single deterministic pass over exactly two packages (the facade and
// internal/snap), with dependencies loaded from compiler export data.
func regenerateLocks() {
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, modPath := findModule(wd)
	if root == "" {
		fatal(fmt.Errorf("-update-locks: no go.mod found above %s", wd))
	}
	lockDir := filepath.Join(root, "internal", "lint", "testdata")
	if err := os.MkdirAll(lockDir, 0o755); err != nil {
		fatal(err)
	}
	targets := []string{modPath, modPath + "/internal/snap"}

	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles"}, targets...)...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fatal(fmt.Errorf("go list -export: %w", err))
	}
	exports := make(map[string]string)
	pkgs := make(map[string]*listedPkg)
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			fatal(fmt.Errorf("parsing go list output: %w", err))
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		pkgs[p.ImportPath] = &p
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	for _, target := range targets {
		lp := pkgs[target]
		if lp == nil {
			fatal(fmt.Errorf("-update-locks: %s not found by go list", target))
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				fatal(err)
			}
			files = append(files, f)
		}
		info := newTypeInfo()
		tcfg := types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
		pkg, err := tcfg.Check(target, fset, files, info)
		if err != nil {
			fatal(fmt.Errorf("type-checking %s: %w", target, err))
		}
		lcfg := &lint.Config{ModulePath: modPath, LockDir: lockDir, UpdateLocks: true}
		if _, err := lint.RunAnalyzers(fset, files, pkg, info, []*lint.Analyzer{lint.SnapSchema, lint.APISurface}, lcfg); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "ftbfslint: wrote %s and %s\n",
		filepath.Join(lockDir, lint.SnapSchemaLockFile), filepath.Join(lockDir, lint.APISurfaceLockFile))
	os.Exit(0)
}

// findModule walks up from dir to the first go.mod and returns the module
// root directory and module path ("", "" when none).
func findModule(dir string) (string, string) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest)
				}
			}
			return d, ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ftbfslint: %v\n", err)
	os.Exit(1)
}
