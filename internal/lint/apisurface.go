package lint

import (
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// APISurface freezes the module's exported facade. Every exported object
// in the root package (the ftbfs.go facade) is rendered with its full
// type signature and diffed against the committed apisurface.lock, so a
// signature change, a removal, or a new export shows up as a lint
// finding and — after regenerating the lock (regenerateCmd) — as an
// ordinary reviewable diff of the lock file.
//
// The analyzer anchors on the package whose import path equals
// Config.ModulePath and needs Config.LockDir; elsewhere it is inert.
var APISurface = &Analyzer{
	Name: "apisurface",
	Doc:  "exported surface of the module facade matches apisurface.lock",
	Run:  runAPISurface,
}

func runAPISurface(pass *Pass) error {
	cfg := pass.Cfg
	if cfg.ModulePath == "" || cfg.LockDir == "" || pass.Pkg.Path() != cfg.ModulePath {
		return nil
	}
	surface := apiSurfaceLines(pass)
	lockPath := filepath.Join(cfg.LockDir, APISurfaceLockFile)
	if cfg.UpdateLocks {
		return writeLock(lockPath, apiLockHeader, lineTexts(surface))
	}
	locked, exists, err := readLockLines(lockPath)
	if err != nil {
		return err
	}
	pkgPos := packageClausePos(pass)
	if !exists {
		pass.Reportf(pkgPos, "apisurface.lock missing from %s; run `%s` to record the exported surface", cfg.LockDir, regenerateCmd)
		return nil
	}
	reportSurfaceDrift(pass, surface, locked, pkgPos)
	return nil
}

var apiLockHeader = []string{
	"ftbfslint apisurface lock file.",
	"Exported surface of the module facade, one declaration per line.",
	"Regenerate with `" + regenerateCmd + "` after an intentional API",
	"change so the diff shows up in review (see DESIGN.md §7).",
}

const surfaceAdvice = "; run `" + regenerateCmd + "` if the API change is intentional"

// reportSurfaceDrift diffs by declaration name so findings anchor on the
// drifted object — or, for removals, on the package clause.
func reportSurfaceDrift(pass *Pass, surface []fpLine, locked []string, pkgPos token.Pos) {
	got := make(map[string]fpLine)
	for _, l := range surface {
		got[surfaceKey(l.text)] = l
	}
	want := make(map[string]string)
	for _, l := range locked {
		want[surfaceKey(l)] = l
	}
	names := make(map[string]bool)
	for n := range got {
		names[n] = true
	}
	for n := range want {
		names[n] = true
	}
	for _, name := range sortedMapKeys(names) {
		g, inGot := got[name]
		w, inWant := want[name]
		switch {
		case !inWant:
			pass.Reportf(g.pos, "exported %s is not recorded in apisurface.lock%s", name, surfaceAdvice)
		case !inGot:
			pass.Reportf(pkgPos, "exported %s has been removed but is still recorded in apisurface.lock%s", name, surfaceAdvice)
		case g.text != w:
			pass.Reportf(g.pos, "exported surface drift: %q (locked: %q)%s", g.text, w, surfaceAdvice)
		}
	}
}

// surfaceKey extracts a stable declaration key from a surface line:
// "func Name(...)" → "func Name", "func (*Server) Close() error" →
// "func (Server).Close", "type Meta struct{...}" → "type Meta". The
// receiver stays in the key (modulo pointerness) so methods of
// different types with the same name diff independently.
func surfaceKey(line string) string {
	kind, rest, ok := strings.Cut(line, " ")
	if !ok {
		return line
	}
	recv := ""
	if kind == "func" && strings.HasPrefix(rest, "(") {
		if i := strings.Index(rest, ") "); i >= 0 {
			recv = "(" + strings.TrimPrefix(strings.Trim(rest[:i+1], "()"), "*") + ")."
			rest = rest[i+2:]
		}
	}
	name := rest
	if i := strings.IndexAny(name, " ([="); i >= 0 {
		name = name[:i]
	}
	return kind + " " + recv + name
}

// apiSurfaceLines renders every exported package-scope object, sorted.
// Objects declared in _test.go files are excluded: go vet analyzes the
// test variant of the package, and test helpers are not API.
func apiSurfaceLines(pass *Pass) []fpLine {
	qual := func(p *types.Package) string {
		if p == pass.Pkg {
			return ""
		}
		return strings.TrimPrefix(p.Path(), pass.Cfg.ModulePath+"/")
	}
	scope := pass.Pkg.Scope()
	var out []fpLine
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		if f := pass.Fset.Position(obj.Pos()).Filename; strings.HasSuffix(f, "_test.go") {
			continue
		}
		out = append(out, fpLine{types.ObjectString(obj, qual), obj.Pos()})
		// Exported methods of exported named types are surface too.
		if tn, ok := obj.(*types.TypeName); ok {
			if n := namedOf(tn.Type()); n != nil {
				for i := 0; i < n.NumMethods(); i++ {
					m := n.Method(i)
					if m.Exported() {
						out = append(out, fpLine{types.ObjectString(m, qual), m.Pos()})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].text < out[j].text })
	return out
}
