// Package lint is ftbfslint: a repo-specific static-analysis suite for
// the invariants no compiler check or test can hold on its own — hot
// paths that must not allocate, at most one long-lived mutex held at a
// time, and the snapshot wire schema and public facade held against
// committed lock files. It is organized like
// golang.org/x/tools/go/analysis (an Analyzer with a Run func over a
// Pass), but implemented on the standard library alone so the module
// stays dependency-free. The Loader type-checks packages from source,
// and TestLintTree runs the suite over every package of the module from
// `go test`.
//
// Two function annotations drive the analyzers:
//
//	//ftbfs:hotpath             (func) must not contain per-call allocation
//	//                          constructs
//	//ftbfs:holds mu            (func) callers are documented to hold `mu`
//	//ftbfs:holds Server.mu     (or another package-local type's mutex);
//	//                          the lockheld walk starts with it held
//
// Findings are suppressed staticcheck-style with
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the offending line or the line directly above it; the reason is
// mandatory and an ignore that matches no finding is itself reported, so
// suppressions cannot silently outlive the code they excused.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. The shape mirrors
// x/tools/go/analysis so the checks could be ported to the real framework
// if the module ever takes on the dependency.
type Analyzer struct {
	Name string // short lower-case identifier, used in //lint:ignore
	Doc  string // one-paragraph description of the enforced invariant
	Run  func(*Pass) error
}

// A Config carries the module context shared by one Analyze call: the
// module path, the location of the committed lock files, and the
// regenerate switch. The zero value is valid: hotalloc ignores it
// entirely, lockheld skips its cross-package rule, and the lock-file
// analyzers are inert.
type Config struct {
	// ModulePath is the import path of the module root package. The
	// apisurface analyzer anchors on it, and lockheld's cross-package
	// rule covers the packages under it; "" disables both.
	ModulePath string
	// LockDir is the directory holding snapschema.lock/apisurface.lock.
	// "" disables the lock-file analyzers.
	LockDir string
	// UpdateLocks rewrites the lock files from the observed state instead
	// of diffing against them.
	UpdateLocks bool
}

// A Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Cfg      *Config

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Suite returns the ftbfslint analyzers in stable order: the code
// checks hotalloc and lockheld first, then the lock-file analyzers.
func Suite() []*Analyzer {
	return []*Analyzer{
		HotAlloc,
		LockHeld,
		SnapSchema,
		APISurface,
	}
}

// runAnalyzers runs the analyzers over one type-checked package and
// returns the surviving diagnostics: findings suppressed by a well-formed
// //lint:ignore are dropped, malformed or unused ignore directives are
// reported as findings of the pseudo-analyzer "ignore", and the result is
// sorted by position. cfg may be nil (the zero Config).
func runAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, cfg *Config) ([]Diagnostic, error) {
	if cfg == nil {
		cfg = &Config{}
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Cfg:      cfg,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags = applyIgnores(fset, files, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// ---- //lint:ignore suppression ----

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)(?:\s+(.*))?$`)

type ignoreDirective struct {
	pos       token.Position
	analyzers []string
	reason    string
	used      bool
}

// applyIgnores drops diagnostics covered by a //lint:ignore on the same
// line or the line directly above, and appends "ignore" diagnostics for
// directives that are malformed (no reason) or matched nothing.
func applyIgnores(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	// file -> line -> directives scoped to that line.
	scope := make(map[string]map[int][]*ignoreDirective)
	var all []*ignoreDirective
	var kept []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				d := &ignoreDirective{
					pos:       pos,
					analyzers: strings.Split(m[1], ","),
					reason:    strings.TrimSpace(m[2]),
				}
				if d.reason == "" {
					kept = append(kept, Diagnostic{
						Pos:      pos,
						Analyzer: "ignore",
						Message:  "//lint:ignore needs a reason: //lint:ignore <analyzer> <why this is safe>",
					})
					continue
				}
				all = append(all, d)
				lines := scope[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*ignoreDirective)
					scope[pos.Filename] = lines
				}
				// The directive covers its own line (trailing comment) and
				// the next line (comment above the statement).
				lines[pos.Line] = append(lines[pos.Line], d)
				lines[pos.Line+1] = append(lines[pos.Line+1], d)
			}
		}
	}
	for _, d := range diags {
		suppressed := false
		for _, dir := range scope[d.Pos.Filename][d.Pos.Line] {
			for _, name := range dir.analyzers {
				if name == d.Analyzer {
					dir.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, dir := range all {
		if !dir.used {
			kept = append(kept, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "ignore",
				Message: fmt.Sprintf("//lint:ignore %s matched no finding on this or the next line; delete it",
					strings.Join(dir.analyzers, ",")),
			})
		}
	}
	return kept
}

// ---- shared annotation scanning ----

// hasDirective reports whether a comment group contains the given
// //ftbfs: directive (exact word match on the directive name).
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	prefix := "//ftbfs:" + name
	for _, c := range doc.List {
		if c.Text == prefix || strings.HasPrefix(c.Text, prefix+" ") {
			return true
		}
	}
	return false
}

// ---- shared type helpers ----

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the named type behind t (through one pointer and
// aliases), or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = deref(types.Unalias(t))
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n
	}
	return nil
}

// isPkgPathSuffix reports whether pkg is non-nil and its import path is
// path or ends in "/"+path. Matching by suffix lets test fixtures stand in
// stub packages under any root while still matching the real module.
func isPkgPathSuffix(pkg *types.Package, path string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == path || strings.HasSuffix(p, "/"+path)
}

// typeFromPath reports whether t's named type is declared in a package
// matching path (by isPkgPathSuffix) with the given type name.
func typeFromPath(t types.Type, path, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	return n.Obj().Name() == name && isPkgPathSuffix(n.Obj().Pkg(), path)
}

// calleeObj resolves the called function/method object of a call, or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFuncCall reports whether call invokes a function of a package
// whose import path matches pkgPath (suffix match).
func isPkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath string) bool {
	fn, ok := calleeObj(info, call).(*types.Func)
	return ok && fn.Pkg() != nil && isPkgPathSuffix(fn.Pkg(), pkgPath)
}

// funcDecls yields every function declaration in the pass's files.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// rootIdent walks to the base identifier of a selector/index/paren chain:
// rootIdent(s.graphs[k].builds) == s. Returns nil for non-ident roots
// (calls, literals).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedMapKeys returns m's keys in sorted order.
func sortedMapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
