package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder is the whole-program deadlock predictor: it extracts a
// lock-acquisition order graph from every Lock/RLock in scope, propagates
// held-lock sets through //ftbfs:holds annotations and direct calls
// (cross-package via the facts side channel), and reports any cycle in
// the order graph with both acquisition paths printed.
//
// Scope: packages whose import path ends in internal/server,
// internal/oracle or internal/snap, plus any package carrying a bare
// //ftbfs:lockorder comment (how fixtures opt in). Out-of-scope packages
// still forward their dependencies' edges, so constraints survive import
// chains that pass through neutral packages.
//
// The model is deliberately syntactic where it can afford to be:
//   - A lock is long-lived state — a mutex field canonicalized by its
//     owning named type (pkg.Type.mu) or a package-level mutex var
//     (pkg.mu). Function-local mutexes are ignored.
//   - Held sets track straight-line statement order. Acquisitions inside
//     branches are visible to later statements of the same branch only:
//     conditional locking does not leak MAY-held locks past the join.
//   - Function literals, go statements and deferred calls run outside the
//     caller's acquisition order and are walked with an empty held set.
//   - TryLock cannot block, so it adds no edge, but a successful TryLock
//     is held for everything after it.
//   - Calls through interfaces resolve to no concrete body, so edges
//     behind them are not seen (MemStore.Put behind ServerStore); keep
//     store/oracle callouts outside critical sections.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "no cycles in the cross-package mutex acquisition order graph (potential deadlocks)",
	Run:  runLockOrder,
}

// lockScopeSuffixes are the package path suffixes in lock scope: the
// packages owning the long-lived mutexes of the serving plane.
var lockScopeSuffixes = []string{"internal/server", "internal/oracle", "internal/snap"}

// LockScopePath reports whether an import path is in the lock-order
// extraction scope by suffix. cmd/ftbfslint uses this to decide whether a
// VetxOnly (facts-only) invocation must parse and type-check the package
// or may forward a passthrough record; the //ftbfs:lockorder directive
// opt-in needs syntax and is handled after parsing.
func LockScopePath(path string) bool {
	for _, s := range lockScopeSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// lockOrderInScope reports whether a package gets the full lock-order
// extraction (vs. a facts passthrough).
func lockOrderInScope(files []*ast.File, pkg *types.Package) bool {
	for _, s := range lockScopeSuffixes {
		if isPkgPathSuffix(pkg, s) {
			return true
		}
	}
	return packageHasDirective(files, "lockorder")
}

func runLockOrder(pass *Pass) error {
	la := newLockAnalysis(pass.Fset, pass.Files, pass.Pkg, pass.Info, pass.Cfg.Deps)
	pass.Cfg.Facts = la.facts
	la.report(pass)
	return nil
}

// ComputeLockFacts runs the lock-order extraction alone — no reporting —
// and returns the package's facts for the vetx side channel. This is the
// entry point for VetxOnly invocations under `go vet` and for the
// Loader's recursive dependency pass.
func ComputeLockFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, deps []*PackageFacts) *PackageFacts {
	return newLockAnalysis(fset, files, pkg, info, deps).facts
}

const (
	opAcquire = iota
	opTryAcquire
	opRelease
)

// lockOp is one classified mutex call site.
type lockOp struct {
	id     string // canonical lock ID
	kind   int
	expr   string // printable receiver path, e.g. "s.mu"
	method string // Lock, RLock, ...
}

// heldLock is one entry of the walk's held set.
type heldLock struct {
	id  string
	pos token.Pos
	how string // "s.mu.Lock() at server.go:751" or "//ftbfs:holds"
}

// ownEdge is a lock-order edge discovered in this package, with the
// acquisition site kept as a token.Pos so cycle findings anchor exactly
// there.
type ownEdge struct {
	LockEdge
	pos token.Pos
}

type lockAnalysis struct {
	fset  *token.FileSet
	files []*ast.File // non-test files only
	pkg   *types.Package
	info  *types.Info
	deps  []*PackageFacts

	inScope    bool
	depIdx     map[string]map[string][]string // pkg path -> funcKey -> acquires
	summary    map[string]map[string]bool     // funcKey -> transitive acquires
	localCalls map[string]map[string]bool     // funcKey -> same-package callees
	edgeSeen   map[[2]string]bool
	ownEdges   []ownEdge
	facts      *PackageFacts
}

func newLockAnalysis(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, deps []*PackageFacts) *lockAnalysis {
	la := &lockAnalysis{
		fset:       fset,
		files:      nonTestFiles(fset, files),
		pkg:        pkg,
		info:       info,
		deps:       deps,
		depIdx:     depAcquires(deps),
		summary:    make(map[string]map[string]bool),
		localCalls: make(map[string]map[string]bool),
		edgeSeen:   make(map[[2]string]bool),
	}
	la.inScope = lockOrderInScope(files, pkg)
	if !la.inScope {
		la.facts = PassthroughFacts(pkg.Path(), deps)
		return la
	}
	la.summarize()
	la.walkAll()
	la.facts = la.buildFacts()
	return la
}

// ---- summaries (which locks may a function acquire, transitively) ----

func (la *lockAnalysis) summarize() {
	for _, fd := range funcDecls(la.files) {
		key := la.declKey(fd)
		if key == "" {
			continue
		}
		acq, calls := la.directScan(fd.Body)
		la.summary[key] = acq
		la.localCalls[key] = calls
	}
	for changed := true; changed; {
		changed = false
		for key, callees := range la.localCalls {
			for callee := range callees {
				for a := range la.summary[callee] {
					if !la.summary[key][a] {
						la.summary[key][a] = true
						changed = true
					}
				}
			}
		}
	}
}

// directScan collects the locks a body acquires directly (including in
// deferred calls, which run on the same goroutine) plus its same-package
// callees; cross-package callees resolve immediately through dep facts.
// Function literals and go statements run outside the caller's
// synchronous execution and are excluded.
func (la *lockAnalysis) directScan(body ast.Node) (map[string]bool, map[string]bool) {
	acq := make(map[string]bool)
	calls := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := la.lockOpOf(call); ok {
			if op.kind != opRelease {
				acq[op.id] = true
			}
			return true
		}
		fn, ok := calleeObj(la.info, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if fn.Pkg() == la.pkg {
			calls[funcKeyOf(fn)] = true
		} else {
			for _, a := range la.depIdx[fn.Pkg().Path()][funcKeyOf(fn)] {
				acq[a] = true
			}
		}
		return true
	})
	return acq, calls
}

// ---- held-set walk (edge discovery) ----

func (la *lockAnalysis) walkAll() {
	for _, fd := range funcDecls(la.files) {
		held := la.holdsInitial(fd)
		la.walkStmts(fd.Body.List, &held, funcTitle(fd))
	}
	// Every function literal is its own goroutine-agnostic unit: walked
	// with an empty held set (what the enclosing frame holds when — or
	// whether — the literal runs is not knowable syntactically).
	for _, f := range la.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				held := []heldLock{}
				la.walkStmts(fl.Body.List, &held, "function literal")
			}
			return true
		})
	}
}

// holdsInitial seeds the held set from //ftbfs:holds annotations: a bare
// `mu` resolves against the receiver type (pkg.Recv.mu) or, without a
// receiver, to a package-level mutex var (pkg.mu).
func (la *lockAnalysis) holdsInitial(fd *ast.FuncDecl) []heldLock {
	var held []heldLock
	recvType := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if n := namedOf(la.info.TypeOf(fd.Recv.List[0].Type)); n != nil {
			recvType = n.Obj().Name()
		}
	}
	for _, spec := range holdsAnnotations(fd) {
		tn := spec.typeName
		if tn == "" {
			tn = recvType
		}
		id := la.pkg.Path() + "." + spec.mutex
		if tn != "" {
			id = la.pkg.Path() + "." + tn + "." + spec.mutex
		}
		held = append(held, heldLock{id: id, pos: fd.Name.Pos(), how: "//ftbfs:holds"})
	}
	return held
}

// walkStmts threads one held set through a statement list in order.
func (la *lockAnalysis) walkStmts(list []ast.Stmt, held *[]heldLock, fname string) {
	for _, s := range list {
		la.walkStmt(s, held, fname)
	}
}

func (la *lockAnalysis) walkStmt(s ast.Stmt, held *[]heldLock, fname string) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		la.walkStmts(st.List, held, fname)
	case *ast.LabeledStmt:
		la.walkStmt(st.Stmt, held, fname)
	case *ast.IfStmt:
		la.walkStmt(st.Init, held, fname)
		la.scanExpr(st.Cond, held, fname)
		la.walkBranch(st.Body, held, fname)
		if st.Else != nil {
			branch := append([]heldLock(nil), *held...)
			la.walkStmt(st.Else, &branch, fname)
		}
	case *ast.ForStmt:
		la.walkStmt(st.Init, held, fname)
		la.scanExpr(st.Cond, held, fname)
		branch := append([]heldLock(nil), *held...)
		la.walkStmts(st.Body.List, &branch, fname)
		la.walkStmt(st.Post, &branch, fname)
	case *ast.RangeStmt:
		la.scanExpr(st.X, held, fname)
		la.walkBranch(st.Body, held, fname)
	case *ast.SwitchStmt:
		la.walkStmt(st.Init, held, fname)
		la.scanExpr(st.Tag, held, fname)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				branch := append([]heldLock(nil), *held...)
				for _, e := range cc.List {
					la.scanExpr(e, &branch, fname)
				}
				la.walkStmts(cc.Body, &branch, fname)
			}
		}
	case *ast.TypeSwitchStmt:
		la.walkStmt(st.Init, held, fname)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				branch := append([]heldLock(nil), *held...)
				la.walkStmts(cc.Body, &branch, fname)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				branch := append([]heldLock(nil), *held...)
				la.walkStmt(cc.Comm, &branch, fname)
				la.walkStmts(cc.Body, &branch, fname)
			}
		}
	case *ast.GoStmt, *ast.DeferStmt:
		// Different goroutine / unknown held set at run time; their
		// function-literal bodies are walked separately.
	default:
		la.scanNode(s, held, fname)
	}
}

// walkBranch walks a conditional body over a copy of the held set, so
// MAY-held locks do not survive past the join.
func (la *lockAnalysis) walkBranch(body *ast.BlockStmt, held *[]heldLock, fname string) {
	branch := append([]heldLock(nil), *held...)
	la.walkStmts(body.List, &branch, fname)
}

func (la *lockAnalysis) scanExpr(e ast.Expr, held *[]heldLock, fname string) {
	if e != nil {
		la.scanNode(e, held, fname)
	}
}

// scanNode processes every call in a leaf statement or expression in
// source order, skipping function literals and deferred/concurrent
// subtrees.
func (la *lockAnalysis) scanNode(n ast.Node, held *[]heldLock, fname string) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok {
			la.handleCall(call, held, fname)
		}
		return true
	})
}

func (la *lockAnalysis) handleCall(call *ast.CallExpr, held *[]heldLock, fname string) {
	if op, ok := la.lockOpOf(call); ok {
		switch op.kind {
		case opAcquire:
			for _, h := range *held {
				la.addEdge(h, op.id, call.Pos(), fmt.Sprintf("%s.%s()", op.expr, op.method), fname)
			}
			fallthrough
		case opTryAcquire:
			*held = append(*held, heldLock{
				id:  op.id,
				pos: call.Pos(),
				how: fmt.Sprintf("%s.%s() at %s", op.expr, op.method, la.shortPos(call.Pos())),
			})
		case opRelease:
			for i := len(*held) - 1; i >= 0; i-- {
				if (*held)[i].id == op.id {
					*held = append((*held)[:i], (*held)[i+1:]...)
					break
				}
			}
		}
		return
	}
	if len(*held) == 0 {
		return
	}
	fn, ok := calleeObj(la.info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	var acquires []string
	var callee string
	if fn.Pkg() == la.pkg {
		key := funcKeyOf(fn)
		acquires = sortedKeys(la.summary[key])
		callee = key
	} else {
		acquires = la.depIdx[fn.Pkg().Path()][funcKeyOf(fn)]
		callee = fn.Pkg().Name() + "." + funcKeyOf(fn)
	}
	for _, a := range acquires {
		for _, h := range *held {
			la.addEdge(h, a, call.Pos(), fmt.Sprintf("via call to %s", callee), fname)
		}
	}
}

func (la *lockAnalysis) addEdge(from heldLock, to string, pos token.Pos, how, fname string) {
	k := [2]string{from.id, to}
	if la.edgeSeen[k] {
		return
	}
	la.edgeSeen[k] = true
	la.ownEdges = append(la.ownEdges, ownEdge{
		LockEdge: LockEdge{
			From: from.id,
			To:   to,
			Pos:  la.fset.Position(pos).String(),
			Desc: fmt.Sprintf("%s acquires %s (%s) while holding %s (%s)", fname, to, how, from.id, from.how),
		},
		pos: pos,
	})
}

// ---- lock identity ----

// lockOpOf classifies call as a mutex acquire/try/release. The method
// must resolve to sync's Mutex/RWMutex methods (which also catches calls
// promoted through embedding), and the operand must canonicalize to a
// long-lived lock ID.
func (la *lockAnalysis) lockOpOf(call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var kind int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opAcquire
	case "TryLock", "TryRLock":
		kind = opTryAcquire
	case "Unlock", "RUnlock":
		kind = opRelease
	default:
		return lockOp{}, false
	}
	fn, ok := calleeObj(la.info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	id := la.lockIDOf(sel)
	if id == "" {
		return lockOp{}, false
	}
	return lockOp{id: id, kind: kind, expr: exprPath(sel.X), method: sel.Sel.Name}, true
}

// lockIDOf canonicalizes the mutex operand of a Lock-family selector:
//
//	s.mu.Lock()           -> pkg.Server.mu   (owner's named type)
//	oracle.regMu.Lock()   -> pkg.regMu       (package-level var)
//	c.Lock()              -> pkg.Cache.Mutex (promoted embedded mutex)
//	reg.mu.Lock()         -> pkg.reg.mu      (anonymous-struct pkg var)
//
// Function-local mutexes return "": their lifetime is one call frame, so
// they cannot participate in a cross-function ordering cycle.
func (la *lockAnalysis) lockIDOf(sel *ast.SelectorExpr) string {
	x := ast.Unparen(sel.X)
	t := la.info.TypeOf(x)
	if isMutexType(t) || isMutexType(deref(types.Unalias(t))) {
		switch m := x.(type) {
		case *ast.SelectorExpr:
			if n := namedOf(la.info.TypeOf(m.X)); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + m.Sel.Name
			}
			// pkgname.Mu (qualified package-level var)
			if obj, ok := la.info.Uses[m.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			// mutex field of an anonymous struct rooted at a package var
			if root := rootIdent(m.X); root != nil {
				if obj, ok := la.info.Uses[root].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
					return obj.Pkg().Path() + "." + exprPath(m)
				}
			}
		case *ast.Ident:
			if obj, ok := la.info.Uses[m].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
		}
		return ""
	}
	// Promoted method: x is a value whose named type embeds the mutex.
	if n := namedOf(t); n != nil && n.Obj().Pkg() != nil {
		if st, ok := n.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Embedded() && isMutexType(f.Type()) {
					return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
				}
			}
		}
	}
	return ""
}

// funcKeyOf names a function for summaries and facts: "Name", or
// "Type.Name" for methods.
func funcKeyOf(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// declKey is funcKeyOf for a declaration site.
func (la *lockAnalysis) declKey(fd *ast.FuncDecl) string {
	fn, ok := la.info.Defs[fd.Name].(*types.Func)
	if !ok {
		return ""
	}
	return funcKeyOf(fn)
}

func (la *lockAnalysis) shortPos(pos token.Pos) string {
	p := la.fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// ---- facts + cycle reporting ----

func (la *lockAnalysis) buildFacts() *PackageFacts {
	own := make([]LockEdge, len(la.ownEdges))
	for i, e := range la.ownEdges {
		own[i] = e.LockEdge
	}
	f := &PackageFacts{Path: la.pkg.Path(), Edges: mergeEdges(own, la.deps)}
	for _, key := range sortedMapKeys(la.summary) {
		acq := sortedKeys(la.summary[key])
		if len(acq) == 0 {
			continue
		}
		f.Funcs = append(f.Funcs, FuncLocks{Func: key, Acquires: acq})
	}
	return f
}

// report finds cycles in the union graph that include at least one edge
// discovered in this package (so a cycle is reported exactly once, where
// it closes) and prints every edge of the cycle: both acquisition paths,
// with positions.
func (la *lockAnalysis) report(pass *Pass) {
	if !la.inScope || len(la.ownEdges) == 0 {
		return
	}
	adj := make(map[string][]LockEdge)
	for _, e := range la.facts.Edges {
		adj[e.From] = append(adj[e.From], e)
	}
	edges := append([]ownEdge(nil), la.ownEdges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	reported := make(map[string]bool)
	for _, oe := range edges {
		if oe.From == oe.To {
			pass.Reportf(oe.pos, "lock %s acquired while already held: %s", oe.To, oe.Desc)
			continue
		}
		back := shortestLockPath(adj, oe.To, oe.From)
		if back == nil {
			continue
		}
		cycle := append([]LockEdge{oe.LockEdge}, back...)
		nodes := make([]string, 0, len(cycle))
		for _, e := range cycle {
			nodes = append(nodes, e.From)
		}
		key := cycleKey(nodes)
		if reported[key] {
			continue
		}
		reported[key] = true
		var b strings.Builder
		fmt.Fprintf(&b, "lock-order cycle (potential deadlock): %s -> %s", strings.Join(nodes, " -> "), nodes[0])
		for _, e := range cycle {
			fmt.Fprintf(&b, "; %s -> %s at %s (%s)", e.From, e.To, e.Pos, e.Desc)
		}
		pass.Reportf(oe.pos, "%s", b.String())
	}
}

// shortestLockPath BFSes from -> to over the edge adjacency, returning
// the edge sequence or nil.
func shortestLockPath(adj map[string][]LockEdge, from, to string) []LockEdge {
	type state struct {
		node string
		path []LockEdge
	}
	visited := map[string]bool{from: true}
	queue := []state{{node: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur.node] {
			if e.To == to {
				return append(append([]LockEdge(nil), cur.path...), e)
			}
			if visited[e.To] {
				continue
			}
			visited[e.To] = true
			queue = append(queue, state{node: e.To, path: append(append([]LockEdge(nil), cur.path...), e)})
		}
	}
	return nil
}

func cycleKey(nodes []string) string {
	s := append([]string(nil), nodes...)
	sort.Strings(s)
	return strings.Join(s, "|")
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedMapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- //ftbfs:holds and mutex helpers ----

// guardSpec names a mutex a function's callers hold: either a field of
// the receiver's type (typeName == "") or a mutex field of another
// package-local type.
type guardSpec struct {
	typeName string // "" for the receiver's own mutex
	mutex    string
}

// holdsAnnotations parses every //ftbfs:holds directive of the function
// (one mutex per directive line; both `mu` and `Type.mu` forms).
func holdsAnnotations(fd *ast.FuncDecl) []guardSpec {
	if fd.Doc == nil {
		return nil
	}
	var out []guardSpec
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//ftbfs:holds ")
		if !ok {
			continue
		}
		for _, tok := range strings.Fields(rest) {
			if t, m, ok := strings.Cut(tok, "."); ok {
				out = append(out, guardSpec{typeName: t, mutex: m})
			} else {
				out = append(out, guardSpec{mutex: tok})
			}
		}
	}
	return out
}

func isMutexType(t types.Type) bool {
	return typeFromPath(t, "sync", "Mutex") || typeFromPath(t, "sync", "RWMutex")
}

// exprPath canonicalizes a selector/index chain to a comparable string:
// s.graphs[k] -> "s.graphs[]". Unrenderable roots become "?".
func exprPath(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprPath(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprPath(x.X) + "[]"
	case *ast.StarExpr:
		return exprPath(x.X)
	default:
		return "?"
	}
}

func funcTitle(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		return fmt.Sprintf("method (%s).%s", exprPath(t), fd.Name.Name)
	}
	return "function " + fd.Name.Name
}
