package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runImmutable holds the contract of a struct annotated
// //simlint:immutable (program.Program): once built, it never changes,
// because it memoizes values derived from its fields. Outside the
// type's own package it flags
//
//   - a write to a field of such a value, or to an element reached
//     through one (p.Length = n, p.Code[i] = in, p.Segs[i].Data[j]++,
//     *p = q, &p.Length, copy(p.Code, …), append(p.Segs, …));
//   - a by-value copy of such a value (q := *p, f(*p), a range value
//     over a []Program), which would carry a stale copy of the memo.
//
// Composite literals build a value and are allowed. A write through an
// alias taken earlier (code := p.Code; code[0] = in) is beyond this
// syntactic check; the copy half is also enforced by `go vet`'s
// copylocks, through the memo's sync.Once fields.
func runImmutable(m *Module, cfg Config, pkg *Package) []Diag {
	imm := immutableTypes(m)
	if len(imm) == 0 {
		return nil
	}
	// isImm reports whether t is an immutable struct of another package.
	isImm := func(t types.Type) (*types.TypeName, bool) {
		if t == nil {
			return nil, false
		}
		named, ok := types.Unalias(t).(*types.Named)
		if !ok {
			return nil, false
		}
		obj := named.Origin().Obj()
		return obj, imm[obj] && obj.Pkg() != pkg.Types
	}
	// fieldOf reports the immutable type whose field sel selects.
	fieldOf := func(sel *ast.SelectorExpr) (*types.TypeName, bool) {
		s := pkg.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return nil, false
		}
		recv := s.Recv()
		if p, ok := recv.Underlying().(*types.Pointer); ok {
			recv = p.Elem()
		}
		return isImm(recv)
	}

	var diags []Diag
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diag{Pos: m.Fset.Position(pos), Analyzer: "immutable", Message: msg})
	}
	// written flags e when it is, or reaches through a chain of
	// selectors, indexes, slices and dereferences, a field of an
	// immutable value.
	written := func(e ast.Expr, verb string) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.StarExpr:
				if obj, ok := isImm(pkg.Info.TypeOf(x)); ok {
					report(x.Pos(), verb+" "+qualified(obj)+": it is immutable outside package "+obj.Pkg().Name())
					return
				}
				e = x.X
			case *ast.SelectorExpr:
				if obj, ok := fieldOf(x); ok {
					report(x.Pos(), verb+" field "+obj.Name()+"."+x.Sel.Name+": "+qualified(obj)+" is immutable outside package "+obj.Pkg().Name())
					return
				}
				e = x.X
			default:
				return
			}
		}
	}

	for _, f := range pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			var parent ast.Node
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			stack = append(stack, n)

			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					written(lhs, "assigns to")
				}
			case *ast.IncDecStmt:
				written(x.X, "assigns to")
			case *ast.RangeStmt:
				if x.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{x.Key, x.Value} {
						if e != nil {
							written(e, "assigns to")
						}
					}
				}
				if x.Value != nil {
					if obj, ok := isImm(pkg.Info.TypeOf(x.Value)); ok {
						report(x.Value.Pos(), "range copies "+qualified(obj)+" by value; range over indexes or pointers")
					}
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					written(x.X, "takes the address of")
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) > 0 {
					if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
						switch b.Name() {
						case "append", "clear", "copy":
							written(x.Args[0], b.Name()+" writes into")
						}
					}
				}
			}

			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			tv, ok := pkg.Info.Types[e]
			if !ok || tv.IsType() {
				return true
			}
			obj, ok := isImm(tv.Type)
			if !ok || !copiesValue(e, parent) {
				return true
			}
			report(e.Pos(), "copies "+qualified(obj)+" by value; pass a pointer (its memo must not be copied)")
			return true
		})
	}
	return diags
}

// copiesValue reports whether the value of e, of struct type, is copied
// where it appears under parent: anything but a composite literal being
// built, an operand of & or of a selector, a parenthesized operand (its
// parenthesis is judged instead) or an assignment target.
func copiesValue(e ast.Expr, parent ast.Node) bool {
	if _, ok := e.(*ast.CompositeLit); ok {
		return false
	}
	switch p := parent.(type) {
	case *ast.ParenExpr:
		return false
	case *ast.UnaryExpr:
		return p.Op != token.AND
	case *ast.SelectorExpr:
		return false
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == e {
				return false
			}
		}
	}
	return true
}

// immutableTypes collects every struct type in the module annotated
// //simlint:immutable.
func immutableTypes(m *Module) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, pkg := range m.Pkgs {
		for fi, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if typeDirective(m, pkg, fi, gd, ts, "immutable") == nil {
						continue
					}
					if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
						out[tn] = true
					}
				}
			}
		}
	}
	return out
}

// qualified renders a type name as pkg.Name.
func qualified(obj *types.TypeName) string {
	return obj.Pkg().Name() + "." + obj.Name()
}
