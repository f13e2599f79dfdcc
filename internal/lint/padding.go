package lint

import (
	"go/ast"
	"go/types"
)

// padPkg is the module-relative import path of the pad type.
const padPkg = "/internal/cacheline"

// runPadding holds the layout package cacheline exists for: no two
// simulation goroutines' hot structs on one cache line. A struct type
// with a //simlint:hotpath pointer-receiver method must declare a
// cacheline.Pad field first and last, or carry //simlint:unpadded
// <reason> saying why no other goroutine's writes can reach its lines
// (it is embedded in a padded owner, or nothing writes it per
// instruction).
func runPadding(m *Module, cfg Config, pkg *Package) []Diag {
	hot := map[*types.TypeName]bool{}
	for fi, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			if dir := pkg.funcDirective(m.Fset, fi, fd); dir == nil || dir.Verb != "hotpath" {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ptr, ok := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer)
			if !ok {
				continue
			}
			if named, ok := ptr.Elem().(*types.Named); ok {
				hot[named.Origin().Obj()] = true
			}
		}
	}
	var diags []Diag
	for fi, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); !ok || !hot[tn] || typeDirective(m, pkg, fi, gd, ts, "unpadded") != nil {
					continue
				}
				fields := st.Fields.List
				if len(fields) >= 2 && isPad(m, pkg, fields[0]) && isPad(m, pkg, fields[len(fields)-1]) {
					continue
				}
				diags = append(diags, Diag{
					Pos:      m.Fset.Position(ts.Name.Pos()),
					Analyzer: "padding",
					Message: "struct " + ts.Name.Name + " has //simlint:hotpath methods but does not start and end with a cacheline.Pad field" +
						" (pad it or annotate //simlint:unpadded <reason>)",
				})
			}
		}
	}
	return diags
}

// isPad reports whether a struct field is of the module's pad type.
func isPad(m *Module, pkg *Package, field *ast.Field) bool {
	named, ok := pkg.Info.Types[field.Type].Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pad" && obj.Pkg() != nil && obj.Pkg().Path() == m.Path+padPkg
}
