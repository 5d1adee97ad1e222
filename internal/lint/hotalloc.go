package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc rejects unconditionally-allocating constructs in functions
// annotated `//ftbfs:hotpath` — the vet-time complement of
// TestQueryPathAllocationFree. Flagged: map/slice composite literals,
// &composite literals, make/new, any call into package fmt, string
// concatenation of non-constant operands, string<->[]byte/[]rune
// conversions, closures (func literals capture their environment), and
// interface boxing of non-pointer concrete values at call sites.
//
// Deliberately NOT flagged (flow-insensitivity caveats, see DESIGN.md):
// append (amortized, the hot paths reuse grown scratch), taking the
// address of a scalar local (stack-allocated unless it escapes — escape
// analysis is out of scope), plain struct literals assigned by value, and
// allocations on error paths the annotation author keeps out of hotpath
// functions by construction.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//ftbfs:hotpath functions contain no unconditionally-allocating constructs",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		if !hasDirective(fd.Doc, "hotpath") {
			continue
		}
		checkHotFunc(pass, fd)
	}
	return nil
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			switch pass.Info.TypeOf(x).Underlying().(type) {
			case *types.Map:
				pass.Reportf(x.Pos(), "map literal allocates on every call of this //ftbfs:hotpath function")
			case *types.Slice:
				pass.Reportf(x.Pos(), "slice literal allocates on every call of this //ftbfs:hotpath function")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					pass.Reportf(x.Pos(), "&composite literal allocates on every call of this //ftbfs:hotpath function")
				}
			}
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "closure in a //ftbfs:hotpath function: func literals allocate their captured environment")
			return false // its body is the closure's problem, not this function's
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(pass.Info.TypeOf(x)) && !isConstExpr(pass, x) {
				pass.Reportf(x.Pos(), "string concatenation allocates on every call of this //ftbfs:hotpath function")
			}
		case *ast.CallExpr:
			checkHotCall(pass, x)
		}
		return true
	})
}

func checkHotCall(pass *Pass, call *ast.CallExpr) {
	// Builtins and conversions.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch pass.Info.Uses[id] {
		case types.Universe.Lookup("make"):
			pass.Reportf(call.Pos(), "make allocates on every call of this //ftbfs:hotpath function")
			return
		case types.Universe.Lookup("new"):
			pass.Reportf(call.Pos(), "new allocates on every call of this //ftbfs:hotpath function")
			return
		}
	}
	if len(call.Args) == 1 {
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			to, from := tv.Type, pass.Info.TypeOf(call.Args[0])
			if isStringByteConv(to, from) {
				pass.Reportf(call.Pos(), "string<->byte conversion copies its operand on every call of this //ftbfs:hotpath function")
			}
			return
		}
	}
	if isPkgFuncCall(pass.Info, call, "fmt") {
		pass.Reportf(call.Pos(), "fmt call allocates on every call of this //ftbfs:hotpath function")
		return
	}
	checkBoxing(pass, call)
}

// checkBoxing flags concrete non-pointer values passed where the callee
// takes an interface: the conversion heap-allocates the boxed copy.
func checkBoxing(pass *Pass, call *ast.CallExpr) {
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isConstExpr(pass, arg) {
			continue
		}
		switch types.Unalias(at).(type) {
		case *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // pointer-shaped: stored in the interface without boxing
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "passing %s into an interface parameter boxes it on every call of this //ftbfs:hotpath function",
			typeShort(at))
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}

// isStringByteConv matches the allocating conversions string([]byte),
// string([]rune), []byte(string), []rune(string).
func isStringByteConv(to, from types.Type) bool {
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStringType(to) && isBytes(from)) || (isBytes(to) && isStringType(from))
}

// typeShort renders a type without its full import path.
func typeShort(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
