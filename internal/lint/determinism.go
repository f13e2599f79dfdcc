package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runDeterminism enforces bit-identity discipline in the critical
// packages: reports folded from map iteration depend on Go's
// randomized iteration order, and wall-clock or global-PRNG reads
// inject machine-local state. Three checks:
//
//  1. `range` over a map whose body appends to a slice, sends on a
//     channel, writes output, or accumulates into an order-sensitive
//     (float or string) outer variable — except the collect-then-sort
//     idiom, where the appended slice is passed to a sort/slices
//     ordering call later in the same function;
//  2. time.Now / time.Since / time.Until calls;
//  3. package-level math/rand functions (the global source).
//
// Suppress intentional sites with //simlint:ordered <reason> on the
// statement or the enclosing function: valid reasons are outputs that
// are sorted before use, wall-clock telemetry never folded into
// estimates, and heartbeat/retry timers.
func runDeterminism(m *Module, cfg Config, pkg *Package) []Diag {
	if !contains(cfg.DeterminismPkgs, pkg.ImportPath) {
		return nil
	}
	var diags []Diag
	report := func(pos token.Pos, f *ast.File, msg string) {
		if pkg.suppressedAt(m.Fset, pos, enclosingFunc(f, pos), "ordered") {
			return
		}
		diags = append(diags, Diag{Pos: m.Fset.Position(pos), Analyzer: "determinism", Message: msg})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := pkg.Info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						if msg := orderSensitiveFold(pkg, n, enclosingFunc(f, n.Pos())); msg != "" {
							report(n.Pos(), f, "map iteration "+msg+" (iteration order is randomized; sort keys first or restructure)")
						}
					}
				}
			case *ast.CallExpr:
				if name, ok := stdlibCall(pkg, n, "time"); ok {
					switch name {
					case "Now", "Since", "Until":
						report(n.Pos(), f, "time."+name+" in a determinism-critical package (wall clock must not shape results)")
					}
				}
				if name, ok := stdlibCall(pkg, n, "math/rand"); ok {
					switch name {
					case "New", "NewSource", "NewZipf":
						// Constructing an explicitly seeded local source is
						// the sanctioned pattern.
					default:
						report(n.Pos(), f, "global math/rand."+name+" (seed a local rand.New(rand.NewSource(...)) instead)")
					}
				}
			}
			return true
		})
	}
	return diags
}

// orderSensitiveFold inspects a range-over-map body and returns a
// description of the first order-sensitive fold it finds, or "".
func orderSensitiveFold(pkg *Package, rng *ast.RangeStmt, fd *ast.FuncDecl) string {
	var msg string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if msg != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					if len(n.Args) > 0 && sortedAfter(pkg, fd, rootObj(pkg, n.Args[0]), rng.End()) {
						return true // collect-then-sort idiom
					}
					msg = "appends into a result"
					return false
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if isOutputCall(pkg, sel) {
					msg = "writes output via " + sel.Sel.Name
					return false
				}
			}
		case *ast.SendStmt:
			msg = "sends on a channel"
			return false
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				// `x = x <op> v` self-accumulation on order-sensitive types.
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) && orderSensitiveType(pkg, lhs) &&
						outerVar(pkg, lhs, rng) && mentions(n.Rhs[i], lhs) {
						msg = "accumulates into " + exprString(lhs)
						return false
					}
				}
				return true
			}
			// Compound assignment (+=, -=, ...).
			for _, lhs := range n.Lhs {
				if orderSensitiveType(pkg, lhs) && outerVar(pkg, lhs, rng) {
					msg = "accumulates into " + exprString(lhs)
					return false
				}
			}
		}
		return true
	})
	return msg
}

// rootObj resolves the base object of an ident/selector/index chain,
// or nil.
func rootObj(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			if obj := pkg.Info.Uses[x]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[x]
		default:
			return nil
		}
	}
}

// sortedAfter reports whether obj is passed to a sort/slices ordering
// call after pos inside fd — the collect-then-sort idiom that makes a
// map-fold append deterministic again.
func sortedAfter(pkg *Package, fd *ast.FuncDecl, obj types.Object, pos token.Pos) bool {
	if fd == nil || fd.Body == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		callee, ok := pkg.Info.Uses[sel.Sel]
		if !ok || callee == nil || callee.Pkg() == nil {
			return true
		}
		if p := callee.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if rootObj(pkg, arg) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// orderSensitiveType reports whether accumulating into e across an
// unordered iteration can change the result bits: floating point
// (non-associative) and strings (concatenation order).
func orderSensitiveType(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0
}

// outerVar reports whether the root object of e is declared outside
// the range statement (an accumulator that survives the loop).
func outerVar(pkg *Package, e ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.Ident:
			obj := pkg.Info.Uses[x]
			if obj == nil {
				obj = pkg.Info.Defs[x]
			}
			if obj == nil {
				return false
			}
			return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
		default:
			return false
		}
	}
}

// mentions reports whether expr syntactically contains a reference to
// the same identifier chain as target.
func mentions(expr, target ast.Expr) bool {
	want := exprString(target)
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && exprString(e) == want {
			found = true
			return false
		}
		return true
	})
	return found
}

// exprString renders simple identifier/selector chains for messages
// and structural comparison; other shapes render as "".
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}

// isOutputCall reports whether sel is a write to an output sink:
// fmt print family or a Write*/Print* method.
func isOutputCall(pkg *Package, sel *ast.SelectorExpr) bool {
	if obj, ok := pkg.Info.Uses[sel.Sel]; ok && obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		switch sel.Sel.Name {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return true
		}
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Printf", "Println", "Print":
		// A method write on an io.Writer-ish receiver inside a map fold
		// emits in iteration order.
		if _, ok := pkg.Info.Selections[sel]; ok {
			return true
		}
	}
	return false
}

// stdlibCall resolves a call expression to (name, true) when it calls
// the package-level function name of the stdlib package path.
func stdlibCall(pkg *Package, call *ast.CallExpr, path string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := pkg.Info.Uses[sel.Sel]
	if !ok || obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != path {
		return "", false
	}
	if _, isSelection := pkg.Info.Selections[sel]; isSelection {
		return "", false // method call, not a package-level function
	}
	return sel.Sel.Name, true
}
