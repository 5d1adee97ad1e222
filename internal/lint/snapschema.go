package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SnapSchema freezes the snapshot wire contract. It computes a structural
// fingerprint of everything that feeds the encoder — the Magic/Version
// constants, the [4]byte section-ID table, and every struct reachable
// from snap.Meta and snap.Snapshot through module-internal types (field
// names, order, types, tags) — and diffs it against the committed
// snapschema.lock. Any drift is a finding unless the fingerprint's
// format version differs from the locked one: bumping snap.Version is
// the declared way to change the wire format, and regenerating the lock
// (regenerateCmd) is the declared way to bless a change
// that provably leaves the encoding alone (a comment-only tag edit, a
// rename that no section serializes).
//
// The analyzer anchors on packages whose import path ends in
// internal/snap and needs Config.LockDir; elsewhere it is inert.
var SnapSchema = &Analyzer{
	Name: "snapschema",
	Doc:  "snapshot wire schema (structs reachable from snap.Meta/Snapshot + section table) matches snapschema.lock",
	Run:  runSnapSchema,
}

// fpLine is one fingerprint line with the source position a drift
// finding should anchor on.
type fpLine struct {
	text string
	pos  token.Pos
}

func runSnapSchema(pass *Pass) error {
	if !isPkgPathSuffix(pass.Pkg, "internal/snap") || pass.Cfg.LockDir == "" {
		return nil
	}
	fp := snapFingerprint(pass)
	lockPath := filepath.Join(pass.Cfg.LockDir, SnapSchemaLockFile)
	if pass.Cfg.UpdateLocks {
		return writeLock(lockPath, snapLockHeader, lineTexts(fp))
	}
	locked, exists, err := readLockLines(lockPath)
	if err != nil {
		return err
	}
	pkgPos := packageClausePos(pass)
	if !exists {
		pass.Reportf(pkgPos, "snapschema.lock missing from %s; run `%s` to record the wire schema", pass.Cfg.LockDir, regenerateCmd)
		return nil
	}
	// A differing Version constant IS the wire-format bump: every other
	// drift is then expected and the lock is refreshed by regeneration.
	if lv, cv := lockedConst(locked, "Version"), lockedConst(lineTexts(fp), "Version"); lv != "" && cv != "" && lv != cv {
		return nil
	}
	reportSchemaDrift(pass, fp, locked, pkgPos)
	return nil
}

var snapLockHeader = []string{
	"ftbfslint snapschema lock file.",
	"Structural fingerprint of the snapshot wire contract: Magic/Version,",
	"the section-ID table, and every struct reachable from Meta/Snapshot.",
	"Regenerate with `" + regenerateCmd + "` — and bump snap.Version",
	"first if the change alters the encoding (see DESIGN.md §7).",
}

// reportSchemaDrift diffs block-wise so each finding anchors on the
// drifted declaration, not just "the files differ".
func reportSchemaDrift(pass *Pass, fp []fpLine, locked []string, pkgPos token.Pos) {
	got := parseFpBlocks(fp)
	want := parseLockBlocks(locked)
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
			pass.Reportf(g.pos, "%s is newly part of the snapshot wire schema and not in snapschema.lock%s", name, schemaAdvice)
		case !inGot:
			pass.Reportf(pkgPos, "%s is in snapschema.lock but no longer reachable from the snapshot roots%s", name, schemaAdvice)
		default:
			for i := 0; i < len(g.lines) || i < len(w); i++ {
				switch {
				case i >= len(g.lines):
					pass.Reportf(g.pos, "%s lost %q recorded in snapschema.lock%s", name, strings.TrimSpace(w[i]), schemaAdvice)
				case i >= len(w):
					pass.Reportf(g.lines[i].pos, "%s gained %q not recorded in snapschema.lock%s", name, strings.TrimSpace(g.lines[i].text), schemaAdvice)
				case g.lines[i].text != w[i]:
					pass.Reportf(g.lines[i].pos, "snapshot schema drift in %s: %q (locked: %q)%s",
						name, strings.TrimSpace(g.lines[i].text), strings.TrimSpace(w[i]), schemaAdvice)
				default:
					continue
				}
				break // one finding per block pins the first drift
			}
		}
	}
}

const schemaAdvice = "; bump snap.Version for a wire-format change, or run `" + regenerateCmd + "` if the encoding is provably unchanged"

// fpBlock groups fingerprint lines under their header ("" for the
// consts/sections preamble, otherwise the struct/type line itself).
type fpBlock struct {
	pos   token.Pos
	lines []fpLine
}

func isBlockHeader(text string) bool {
	return strings.HasPrefix(text, "struct ") || strings.HasPrefix(text, "type ")
}

func parseFpBlocks(fp []fpLine) map[string]*fpBlock {
	blocks := map[string]*fpBlock{"(schema header)": {}}
	cur := blocks["(schema header)"]
	for _, l := range fp {
		if isBlockHeader(l.text) {
			cur = &fpBlock{pos: l.pos}
			blocks[l.text] = cur
			continue
		}
		if cur.pos == token.NoPos {
			cur.pos = l.pos
		}
		cur.lines = append(cur.lines, l)
	}
	return blocks
}

func parseLockBlocks(lines []string) map[string][]string {
	blocks := map[string][]string{"(schema header)": nil}
	cur := "(schema header)"
	for _, l := range lines {
		if isBlockHeader(l) {
			cur = l
			blocks[cur] = nil
			continue
		}
		blocks[cur] = append(blocks[cur], l)
	}
	return blocks
}

// lockedConst extracts the value of "const <name> <value>" from content
// lines ("" when absent).
func lockedConst(lines []string, name string) string {
	prefix := "const " + name + " "
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, prefix); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

func lineTexts(fp []fpLine) []string {
	out := make([]string, len(fp))
	for i, l := range fp {
		out[i] = l.text
	}
	return out
}

func packageClausePos(pass *Pass) token.Pos {
	return pass.Files[0].Name.Pos()
}

// ---- fingerprint computation ----

// snapFingerprint renders the wire schema as deterministic text. Package
// paths are recorded relative to the module prefix (the pkg path with
// the trailing internal/snap cut off), so the same schema fingerprints
// identically under the real module path and under a fixture root.
func snapFingerprint(pass *Pass) []fpLine {
	var out []fpLine
	scope := pass.Pkg.Scope()
	modPrefix := strings.TrimSuffix(pass.Pkg.Path(), "internal/snap")
	inModule := func(p *types.Package) bool {
		return p == pass.Pkg || (modPrefix != "" && strings.HasPrefix(p.Path(), modPrefix))
	}
	rel := func(p *types.Package) string {
		if modPrefix != "" {
			return strings.TrimPrefix(p.Path(), modPrefix)
		}
		return p.Path()
	}

	for _, name := range []string{"Magic", "Version"} {
		if c, ok := scope.Lookup(name).(*types.Const); ok {
			out = append(out, fpLine{fmt.Sprintf("const %s %s", name, c.Val().String()), c.Pos()})
		}
	}
	out = append(out, sectionTable(pass)...)

	// Worklist over named types reachable from the roots.
	seen := make(map[string]bool)
	var queue []*types.Named
	push := func(n *types.Named) {
		if n.Obj().Pkg() == nil || !inModule(n.Obj().Pkg()) {
			return
		}
		name := rel(n.Obj().Pkg()) + "." + n.Obj().Name()
		if seen[name] {
			return
		}
		seen[name] = true
		queue = append(queue, n)
	}
	for _, root := range []string{"Meta", "Snapshot"} {
		if tn, ok := scope.Lookup(root).(*types.TypeName); ok {
			if n := namedOf(tn.Type()); n != nil {
				push(n)
			}
		}
	}
	type block struct {
		header fpLine
		lines  []fpLine
	}
	var blocks []block
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		obj := n.Obj()
		name := rel(obj.Pkg()) + "." + obj.Name()
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			blocks = append(blocks, block{header: fpLine{
				fmt.Sprintf("type %s %s", name, types.TypeString(n.Underlying(), rel)), obj.Pos()}})
			walkFieldType(n.Underlying(), push)
			continue
		}
		b := block{header: fpLine{"struct " + name, obj.Pos()}}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			text := fmt.Sprintf(" field %s %s", f.Name(), types.TypeString(f.Type(), rel))
			if tag := st.Tag(i); tag != "" {
				text += " tag:" + strconv.Quote(tag)
			}
			b.lines = append(b.lines, fpLine{text, f.Pos()})
			walkFieldType(f.Type(), push)
		}
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].header.text < blocks[j].header.text })
	for _, b := range blocks {
		out = append(out, b.header)
		out = append(out, b.lines...)
	}
	return out
}

// walkFieldType feeds every named type inside t to push, through
// pointers, containers and anonymous structs.
func walkFieldType(t types.Type, push func(*types.Named)) {
	switch tt := types.Unalias(t).(type) {
	case *types.Pointer:
		walkFieldType(tt.Elem(), push)
	case *types.Slice:
		walkFieldType(tt.Elem(), push)
	case *types.Array:
		walkFieldType(tt.Elem(), push)
	case *types.Chan:
		walkFieldType(tt.Elem(), push)
	case *types.Map:
		walkFieldType(tt.Key(), push)
		walkFieldType(tt.Elem(), push)
	case *types.Named:
		push(tt)
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			walkFieldType(tt.Field(i).Type(), push)
		}
	}
}

// sectionTable fingerprints every package-level [4]byte var — the
// on-wire section IDs — sorted by name.
func sectionTable(pass *Pass) []fpLine {
	var secs []fpLine
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, sp := range gd.Specs {
				vs, ok := sp.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, nm := range vs.Names {
					if i >= len(vs.Values) || !isByte4Array(pass.Info.TypeOf(vs.Values[i])) {
						continue
					}
					secs = append(secs, fpLine{
						fmt.Sprintf("section %s %s", nm.Name, strconv.Quote(byte4Value(pass, vs.Values[i]))),
						nm.Pos(),
					})
				}
			}
		}
	}
	sort.Slice(secs, func(i, j int) bool { return secs[i].text < secs[j].text })
	return secs
}

func isByte4Array(t types.Type) bool {
	arr, ok := types.Unalias(t).(*types.Array)
	if !ok || arr.Len() != 4 {
		return false
	}
	b, ok := types.Unalias(arr.Elem()).(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// byte4Value renders a [4]byte composite literal's constant elements.
func byte4Value(pass *Pass, v ast.Expr) string {
	lit, ok := ast.Unparen(v).(*ast.CompositeLit)
	if !ok {
		return "????"
	}
	b := make([]byte, 0, 4)
	for _, e := range lit.Elts {
		tv, ok := pass.Info.Types[e]
		if !ok || tv.Value == nil {
			return "????"
		}
		n, ok := constant.Int64Val(tv.Value)
		if !ok {
			return "????"
		}
		b = append(b, byte(n))
	}
	return string(b)
}
