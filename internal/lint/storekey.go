package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// runStorekey enforces store-key exhaustiveness: the checkpoint store
// shares one functional sweep across every run whose key matches, so
// a struct field that changes what the sweep captures but is not
// folded into the key silently poisons the cache.
//
// A struct annotated //simlint:keystruct <Func> [<Func>...] declares
// that every one of its fields is either
//
//   - referenced (as a selection resolving to that exact field) inside
//     the body of one of the named key-hash functions, anywhere in the
//     module, or
//   - annotated //simlint:nonkey <reason> documenting why it cannot
//     change captured state (encoding knobs, execution hooks, timing
//     parameters the sweep never observes).
//
// Adding a field — a future trace or co-run dimension, a prefetcher
// geometry knob — without extending the key is therefore a build
// failure instead of a wrong-result bug. Deleting a field reference
// from the hash function fails the same way.
func runStorekey(m *Module, cfg Config, pkg *Package) []Diag {
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
				dir := typeDirective(m, pkg, fi, gd, ts, "keystruct")
				if dir == nil {
					continue
				}
				diags = append(diags, checkKeyStruct(m, pkg, fi, ts, st, dir)...)
			}
		}
	}
	return diags
}

// typeDirective finds a directive with the given verb on the type spec
// or its declaration's doc comment.
func typeDirective(m *Module, pkg *Package, fi int, gd *ast.GenDecl, ts *ast.TypeSpec, verb string) *Directive {
	for _, doc := range []*ast.CommentGroup{ts.Doc, ts.Comment, gd.Doc} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if text, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
				v, args, _ := strings.Cut(text, " ")
				if v == verb {
					return &Directive{Verb: v, Args: strings.TrimSpace(args), Pos: c.Pos()}
				}
			}
		}
	}
	return pkg.directiveAt(m.Fset, fi, gd.Pos(), verb)
}

func checkKeyStruct(m *Module, pkg *Package, fi int, ts *ast.TypeSpec, st *ast.StructType, dir *Directive) []Diag {
	var diags []Diag
	funcNames := strings.Fields(dir.Args)
	var bodies []funcDecl
	for _, name := range funcNames {
		decls := m.funcDecls[name]
		if len(decls) == 0 {
			diags = append(diags, Diag{
				Pos:      m.Fset.Position(dir.Pos),
				Analyzer: "storekey",
				Message:  "keystruct on " + ts.Name.Name + " names unknown key-hash function " + name,
			})
			continue
		}
		bodies = append(bodies, decls...)
	}
	if len(bodies) == 0 {
		return diags
	}
	for _, field := range st.Fields.List {
		if fieldNonKey(m, pkg, fi, field) {
			continue
		}
		for _, name := range field.Names {
			obj, ok := pkg.Info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if !fieldReferenced(obj, bodies) {
				diags = append(diags, Diag{
					Pos:      m.Fset.Position(name.Pos()),
					Analyzer: "storekey",
					Message: "field " + ts.Name.Name + "." + name.Name + " is not folded into the store key by " +
						strings.Join(funcNames, "/") + " (reference it there or annotate //simlint:nonkey <reason>)",
				})
			}
		}
		if len(field.Names) == 0 {
			// Embedded field: require the embedded type itself to be
			// referenced or annotated.
			diags = append(diags, Diag{
				Pos:      m.Fset.Position(field.Pos()),
				Analyzer: "storekey",
				Message:  "embedded field in keystruct " + ts.Name.Name + " needs //simlint:nonkey <reason> or explicit key coverage",
			})
		}
	}
	return diags
}

// fieldNonKey reports whether a struct field carries a nonkey
// directive in its doc comment, its trailing comment, or the line
// above it.
func fieldNonKey(m *Module, pkg *Package, fi int, field *ast.Field) bool {
	for _, doc := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if text, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
				verb, _, _ := strings.Cut(text, " ")
				if verb == "nonkey" {
					return true
				}
			}
		}
	}
	return pkg.directiveAt(m.Fset, fi, field.Pos(), "nonkey") != nil
}

// fieldReferenced reports whether any selection inside the hash
// function bodies resolves to exactly this field object.
func fieldReferenced(field *types.Var, bodies []funcDecl) bool {
	for _, fd := range bodies {
		if fd.decl.Body == nil {
			continue
		}
		found := false
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s, ok := fd.pkg.Info.Selections[sel]; ok && s.Obj() == field {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
