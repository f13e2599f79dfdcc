package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runHotpath turns the runtime AllocsPerRun pins on the sweep fast
// paths into compile-time diagnostics. A function annotated
// //simlint:hotpath must contain no construct that can allocate or
// add dynamic dispatch on the per-instruction path:
//
//   - closures, defer, go statements;
//   - map and slice literals, &composite{} heap literals, make/new;
//   - append;
//   - any fmt.* call;
//   - conversions of concrete values to interface types (boxing);
//   - calls to functions that are not themselves //simlint:hotpath,
//     not declared //simlint:coldpath <reason> (a rare path the hot
//     function amortizes away), and not in a small intrinsic
//     allowlist (the builtins that never allocate — len, cap, copy,
//     clear, delete, min, max — encoding/binary loads, math bit
//     casts, math/bits).
//
// Plain struct-value composite literals are allowed: they live on the
// stack unless some other flagged construct makes them escape.
// A statement inside a hot function may be marked //simlint:coldpath
// <reason> to declare an explicit rare path (e.g. an architectural
// fault return); its subtree is then exempt.
func runHotpath(m *Module, cfg Config, pkg *Package) []Diag {
	var diags []Diag
	for fi, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			dir := pkg.funcDirective(m.Fset, fi, fd)
			if dir == nil || dir.Verb != "hotpath" {
				continue
			}
			hc := &hotChecker{m: m, pkg: pkg, fi: fi, fd: fd}
			hc.stmt(fd.Body)
			diags = append(diags, hc.diags...)
		}
	}
	return diags
}

type hotChecker struct {
	m     *Module
	pkg   *Package
	fi    int
	fd    *ast.FuncDecl
	diags []Diag
}

func (hc *hotChecker) report(pos token.Pos, msg string) {
	hc.diags = append(hc.diags, Diag{
		Pos:      hc.m.Fset.Position(pos),
		Analyzer: "hotpath",
		Message:  msg + " in hot-path function " + hc.fd.Name.Name,
	})
}

// stmt walks one statement, honoring statement-level coldpath
// directives.
func (hc *hotChecker) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	if hc.pkg.directiveAt(hc.m.Fset, hc.fi, s.Pos(), "coldpath") != nil {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range s.List {
			hc.stmt(sub)
		}
	case *ast.IfStmt:
		hc.stmt(s.Init)
		hc.expr(s.Cond)
		hc.stmt(s.Body)
		hc.stmt(s.Else)
	case *ast.ForStmt:
		hc.stmt(s.Init)
		hc.expr(s.Cond)
		hc.stmt(s.Post)
		hc.stmt(s.Body)
	case *ast.RangeStmt:
		hc.expr(s.X)
		hc.stmt(s.Body)
	case *ast.SwitchStmt:
		hc.stmt(s.Init)
		hc.expr(s.Tag)
		hc.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		hc.stmt(s.Init)
		hc.stmt(s.Assign)
		hc.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			hc.expr(e)
		}
		for _, sub := range s.Body {
			hc.stmt(sub)
		}
	case *ast.DeferStmt:
		hc.report(s.Pos(), "defer")
	case *ast.GoStmt:
		hc.report(s.Pos(), "go statement")
	case *ast.SendStmt:
		hc.expr(s.Chan)
		hc.expr(s.Value)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			hc.expr(e)
		}
		for i, lhs := range s.Lhs {
			hc.expr(lhs)
			if i < len(s.Rhs) {
				hc.checkBoxing(lhs, s.Rhs[i])
			}
		}
	case *ast.ReturnStmt:
		results := hc.fd.Type.Results
		for i, e := range s.Results {
			hc.expr(e)
			if results != nil && len(s.Results) == countFields(results) {
				if rt := fieldTypeAt(hc.pkg, results, i); rt != nil {
					hc.checkBoxingType(rt, e)
				}
			}
		}
	case *ast.ExprStmt:
		hc.expr(s.X)
	case *ast.IncDecStmt:
		hc.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						hc.expr(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		hc.stmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	case *ast.SelectStmt:
		hc.report(s.Pos(), "select")
	default:
		// Conservative: walk any unhandled statement's expressions.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				hc.expr(e)
				return false
			}
			return true
		})
	}
}

func (hc *hotChecker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.FuncLit:
		hc.report(e.Pos(), "closure")
	case *ast.CompositeLit:
		hc.compositeLit(e, false)
	case *ast.UnaryExpr:
		if cl, ok := e.X.(*ast.CompositeLit); ok && e.Op == token.AND {
			hc.compositeLit(cl, true)
			return
		}
		hc.expr(e.X)
	case *ast.CallExpr:
		hc.call(e)
	case *ast.BinaryExpr:
		hc.expr(e.X)
		hc.expr(e.Y)
	case *ast.ParenExpr:
		hc.expr(e.X)
	case *ast.SelectorExpr:
		hc.expr(e.X)
	case *ast.IndexExpr:
		hc.expr(e.X)
		hc.expr(e.Index)
	case *ast.SliceExpr:
		hc.expr(e.X)
		hc.expr(e.Low)
		hc.expr(e.High)
		hc.expr(e.Max)
	case *ast.StarExpr:
		hc.expr(e.X)
	case *ast.TypeAssertExpr:
		hc.expr(e.X)
	}
}

func (hc *hotChecker) compositeLit(cl *ast.CompositeLit, addressed bool) {
	tv, ok := hc.pkg.Info.Types[cl]
	if ok && tv.Type != nil {
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			hc.report(cl.Pos(), "map literal")
		case *types.Slice:
			hc.report(cl.Pos(), "slice literal")
		default:
			if addressed {
				hc.report(cl.Pos(), "&composite literal (heap allocation)")
			}
		}
	}
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			hc.expr(kv.Value)
			continue
		}
		hc.expr(el)
	}
}

func (hc *hotChecker) call(call *ast.CallExpr) {
	for _, a := range call.Args {
		hc.expr(a)
	}
	// Type conversion?
	if tv, ok := hc.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			hc.checkBoxingType(tv.Type, call.Args[0])
		}
		return
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj := hc.pkg.Info.Uses[fun]
		if b, ok := obj.(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "copy", "clear", "delete", "min", "max", "real", "imag":
			case "append":
				hc.report(call.Pos(), "append")
			case "make", "new":
				hc.report(call.Pos(), b.Name()+" (heap allocation)")
			default:
				hc.report(call.Pos(), "builtin "+b.Name())
			}
			return
		}
		hc.callee(call, obj)
	case *ast.SelectorExpr:
		hc.expr(fun.X)
		obj := hc.pkg.Info.Uses[fun.Sel]
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			hc.report(call.Pos(), "fmt."+fun.Sel.Name+" call")
			return
		}
		hc.callee(call, obj)
	case *ast.FuncLit:
		hc.report(call.Pos(), "closure call")
	default:
		hc.report(call.Pos(), "dynamic call")
	}
	// Boxing at the call boundary: concrete arguments passed to
	// interface parameters.
	if sig, ok := callSignature(hc.pkg, call); ok && sig != nil {
		params := sig.Params()
		for i, arg := range call.Args {
			pi := i
			if sig.Variadic() && pi >= params.Len()-1 {
				pi = params.Len() - 1
				if st, ok := params.At(pi).Type().(*types.Slice); ok {
					hc.checkBoxingType(st.Elem(), arg)
					continue
				}
			}
			if pi < params.Len() {
				hc.checkBoxingType(params.At(pi).Type(), arg)
			}
		}
	}
}

// callee checks that a resolved call target is admissible on the hot
// path: another hotpath function, a declared coldpath function, or an
// intrinsic.
func (hc *hotChecker) callee(call *ast.CallExpr, obj types.Object) {
	fn, ok := obj.(*types.Func)
	if !ok {
		hc.report(call.Pos(), "dynamic call through "+describeCallTarget(obj))
		return
	}
	if intrinsicFunc(fn) {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			hc.report(call.Pos(), "interface method call "+fn.Name())
			return
		}
	}
	if d := hc.m.funcDirectives[fn]; d != nil {
		return // hotpath or coldpath callee — both admissible
	}
	hc.report(call.Pos(), "call to non-hot-path function "+fn.Name()+" (annotate it //simlint:hotpath or //simlint:coldpath <reason>)")
}

func describeCallTarget(obj types.Object) string {
	if obj == nil {
		return "unresolved target"
	}
	return "function value " + obj.Name()
}

// intrinsicFunc is the allowlist of stdlib helpers the compiler
// reliably inlines or that never allocate: binary loads, float bit
// casts, and math/bits.
func intrinsicFunc(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "encoding/binary":
		return true // LittleEndian/BigEndian fixed-width loads and stores
	case "math/bits":
		return true
	case "math":
		switch fn.Name() {
		case "Float64bits", "Float64frombits", "Float32bits", "Float32frombits", "Abs":
			return true
		}
	}
	return false
}

// checkBoxing flags an assignment of a concrete value into an
// interface-typed destination.
func (hc *hotChecker) checkBoxing(lhs, rhs ast.Expr) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	tv, ok := hc.pkg.Info.Types[lhs]
	if !ok || tv.Type == nil {
		return
	}
	hc.checkBoxingType(tv.Type, rhs)
}

func (hc *hotChecker) checkBoxingType(dst types.Type, src ast.Expr) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := hc.pkg.Info.Types[src]
	if !ok || tv.Type == nil {
		return
	}
	if types.IsInterface(tv.Type) {
		return // interface-to-interface, no boxing of a new value
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	hc.report(src.Pos(), "conversion of "+tv.Type.String()+" to interface (boxing)")
}

// callSignature resolves the signature of a (non-conversion,
// non-builtin) call expression.
func callSignature(pkg *Package, call *ast.CallExpr) (*types.Signature, bool) {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return sig, ok
}

func countFields(fl *ast.FieldList) int {
	n := 0
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}

// fieldTypeAt returns the type of result i in a result list.
func fieldTypeAt(pkg *Package, fl *ast.FieldList, i int) types.Type {
	idx := 0
	for _, f := range fl.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		if i < idx+n {
			if tv, ok := pkg.Info.Types[f.Type]; ok {
				return tv.Type
			}
			return nil
		}
		idx += n
	}
	return nil
}
