package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// LockHeld keeps every goroutine to at most one long-lived mutex at a
// time. A goroutine that never holds two such mutexes at once cannot
// deadlock on them, so there is no acquisition order to check and the
// rule needs nothing from other packages but their declarations. While a
// function holds a long-lived mutex it must not
//
//	(a) acquire one, the same one or another: directly, or through a
//	    call to a function of its own package whose summary acquires one;
//	(b) call a function or method declared in another package of the
//	    module (Config.ModulePath) that declares a long-lived mutex.
//
// The model is deliberately syntactic where it can afford to be:
//   - A lock is long-lived state — a mutex field canonicalized by its
//     owning named type (pkg.Type.mu) or a package-level mutex var
//     (pkg.mu). Function-local mutexes are ignored.
//   - A lock is held from Lock/RLock to the matching unlock on the same
//     straight-line path, or for the whole body of a function under
//     //ftbfs:holds. Acquisitions inside branches are visible to later
//     statements of the same branch only: conditional locking does not
//     leak MAY-held locks past the join.
//   - Function literals, go statements and deferred calls are walked with
//     an empty held set: what their caller holds when (or whether) they
//     run is not knowable syntactically.
//   - TryLock cannot block, so it is no finding, but a successful TryLock
//     is held for everything after it.
//   - Calls through interfaces declared in the same package resolve to no
//     concrete body, so acquisitions behind them are not seen
//     (MemStore.Put behind Store); keep store callouts outside critical
//     sections.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "while a long-lived mutex is held: no mutex acquisition, and no call into another module package that declares a mutex",
	Run:  runLockHeld,
}

func runLockHeld(pass *Pass) error {
	la := &lockAnalysis{
		Pass:       pass,
		summary:    make(map[string]map[string]bool),
		localCalls: make(map[string]map[string]bool),
	}
	la.summarize()
	la.walkAll()
	return nil
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
	how string // "s.mu.Lock() at server.go:751" or "//ftbfs:holds"
}

type lockAnalysis struct {
	*Pass

	summary    map[string]map[string]bool // funcKey -> transitive acquires
	localCalls map[string]map[string]bool // funcKey -> same-package callees
}

// ---- summaries (which locks may a function acquire, transitively) ----

func (la *lockAnalysis) summarize() {
	for _, fd := range funcDecls(la.Files) {
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
// callees. Function literals and go statements run outside the caller's
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
		if fn, ok := calleeObj(la.Info, call).(*types.Func); ok && fn.Pkg() == la.Pkg {
			calls[funcKeyOf(fn)] = true
		}
		return true
	})
	return acq, calls
}

// ---- held-set walk ----

func (la *lockAnalysis) walkAll() {
	for _, fd := range funcDecls(la.Files) {
		held := la.holdsInitial(fd)
		la.walkStmts(fd.Body.List, &held)
	}
	// Every function literal is its own goroutine-agnostic unit: walked
	// with an empty held set (what the enclosing frame holds when — or
	// whether — the literal runs is not knowable syntactically).
	for _, f := range la.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				held := []heldLock{}
				la.walkStmts(fl.Body.List, &held)
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
		if n := namedOf(la.Info.TypeOf(fd.Recv.List[0].Type)); n != nil {
			recvType = n.Obj().Name()
		}
	}
	for _, spec := range holdsAnnotations(fd) {
		tn := spec.typeName
		if tn == "" {
			tn = recvType
		}
		id := la.Pkg.Path() + "." + spec.mutex
		if tn != "" {
			id = la.Pkg.Path() + "." + tn + "." + spec.mutex
		}
		held = append(held, heldLock{id: id, how: "//ftbfs:holds"})
	}
	return held
}

// walkStmts threads one held set through a statement list in order.
func (la *lockAnalysis) walkStmts(list []ast.Stmt, held *[]heldLock) {
	for _, s := range list {
		la.walkStmt(s, held)
	}
}

func (la *lockAnalysis) walkStmt(s ast.Stmt, held *[]heldLock) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		la.walkStmts(st.List, held)
	case *ast.LabeledStmt:
		la.walkStmt(st.Stmt, held)
	case *ast.IfStmt:
		la.walkStmt(st.Init, held)
		la.scanExpr(st.Cond, held)
		la.walkBranch(st.Body, held)
		if st.Else != nil {
			branch := append([]heldLock(nil), *held...)
			la.walkStmt(st.Else, &branch)
		}
	case *ast.ForStmt:
		la.walkStmt(st.Init, held)
		la.scanExpr(st.Cond, held)
		branch := append([]heldLock(nil), *held...)
		la.walkStmts(st.Body.List, &branch)
		la.walkStmt(st.Post, &branch)
	case *ast.RangeStmt:
		la.scanExpr(st.X, held)
		la.walkBranch(st.Body, held)
	case *ast.SwitchStmt:
		la.walkStmt(st.Init, held)
		la.scanExpr(st.Tag, held)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				branch := append([]heldLock(nil), *held...)
				for _, e := range cc.List {
					la.scanExpr(e, &branch)
				}
				la.walkStmts(cc.Body, &branch)
			}
		}
	case *ast.TypeSwitchStmt:
		la.walkStmt(st.Init, held)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				branch := append([]heldLock(nil), *held...)
				la.walkStmts(cc.Body, &branch)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				branch := append([]heldLock(nil), *held...)
				la.walkStmt(cc.Comm, &branch)
				la.walkStmts(cc.Body, &branch)
			}
		}
	case *ast.GoStmt, *ast.DeferStmt:
		// Different goroutine / unknown held set at run time; their
		// function-literal bodies are walked separately.
	default:
		la.scanNode(s, held)
	}
}

// walkBranch walks a conditional body over a copy of the held set, so
// MAY-held locks do not survive past the join.
func (la *lockAnalysis) walkBranch(body *ast.BlockStmt, held *[]heldLock) {
	branch := append([]heldLock(nil), *held...)
	la.walkStmts(body.List, &branch)
}

func (la *lockAnalysis) scanExpr(e ast.Expr, held *[]heldLock) {
	if e != nil {
		la.scanNode(e, held)
	}
}

// scanNode processes every call in a leaf statement or expression in
// source order, skipping function literals and deferred/concurrent
// subtrees.
func (la *lockAnalysis) scanNode(n ast.Node, held *[]heldLock) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok {
			la.handleCall(call, held)
		}
		return true
	})
}

func (la *lockAnalysis) handleCall(call *ast.CallExpr, held *[]heldLock) {
	if op, ok := la.lockOpOf(call); ok {
		switch op.kind {
		case opAcquire:
			if len(*held) > 0 {
				la.Reportf(call.Pos(), "%s.%s() acquires lock %s %s", op.expr, op.method, op.id, whileHeld(*held, op.id))
			}
			fallthrough
		case opTryAcquire:
			*held = append(*held, heldLock{
				id:  op.id,
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
	fn, ok := calleeObj(la.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if fn.Pkg() == la.Pkg {
		if acq := sortedMapKeys(la.summary[funcKeyOf(fn)]); len(acq) > 0 {
			la.Reportf(call.Pos(), "call to %s acquires lock %s %s", funcKeyOf(fn), strings.Join(acq, ", "), whileHeld(*held, acq...))
		}
		return
	}
	if underModule(fn.Pkg(), la.Cfg.ModulePath) && declaresMutex(fn.Pkg()) {
		la.Reportf(call.Pos(), "call to %s.%s %s: package %s declares a mutex; release the lock before calling into it",
			fn.Pkg().Name(), funcKeyOf(fn), whileHeld(*held), fn.Pkg().Path())
	}
}

// whileHeld renders the held set for a finding: "while already held
// (how)" when one of the acquired locks is held, else "while holding
// ID (how)" for each held lock.
func whileHeld(held []heldLock, acquired ...string) string {
	for _, h := range held {
		for _, a := range acquired {
			if h.id == a {
				return fmt.Sprintf("while already held (%s)", h.how)
			}
		}
	}
	parts := make([]string, len(held))
	for i, h := range held {
		parts[i] = fmt.Sprintf("%s (%s)", h.id, h.how)
	}
	return "while holding " + strings.Join(parts, " and ")
}

// underModule reports whether pkg belongs to the module rooted at
// module; "" matches nothing.
func underModule(pkg *types.Package, module string) bool {
	return module != "" && (pkg.Path() == module || strings.HasPrefix(pkg.Path(), module+"/"))
}

// declaresMutex reports whether pkg declares a long-lived mutex: a
// sync.Mutex/RWMutex field of a struct type, or a package-level mutex
// var (or struct var holding one).
func declaresMutex(pkg *types.Package) bool {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.TypeName:
			if hasMutexField(obj.Type()) {
				return true
			}
		case *types.Var:
			if isMutexType(obj.Type()) || hasMutexField(obj.Type()) {
				return true
			}
		}
	}
	return false
}

// hasMutexField reports whether t is a struct type with a sync.Mutex or
// sync.RWMutex field (embedded fields included).
func hasMutexField(t types.Type) bool {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			return true
		}
	}
	return false
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
	fn, ok := calleeObj(la.Info, call).(*types.Func)
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
// no other function can be waiting on them.
func (la *lockAnalysis) lockIDOf(sel *ast.SelectorExpr) string {
	x := ast.Unparen(sel.X)
	t := la.Info.TypeOf(x)
	if isMutexType(t) || isMutexType(deref(types.Unalias(t))) {
		switch m := x.(type) {
		case *ast.SelectorExpr:
			if n := namedOf(la.Info.TypeOf(m.X)); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + m.Sel.Name
			}
			// pkgname.Mu (qualified package-level var)
			if obj, ok := la.Info.Uses[m.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			// mutex field of an anonymous struct rooted at a package var
			if root := rootIdent(m.X); root != nil {
				if obj, ok := la.Info.Uses[root].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
					return obj.Pkg().Path() + "." + exprPath(m)
				}
			}
		case *ast.Ident:
			if obj, ok := la.Info.Uses[m].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
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

// funcKeyOf names a function for summaries and findings: "Name", or
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
	fn, ok := la.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return ""
	}
	return funcKeyOf(fn)
}

func (la *lockAnalysis) shortPos(pos token.Pos) string {
	p := la.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
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
