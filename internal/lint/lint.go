// Package lint implements simlint, the project-invariant static
// analyzer suite behind `go run ./cmd/simlint ./...`.
//
// The repository's value proposition rests on invariants the compiler
// does not check: reports must be bit-identical at any (machine ×
// worker) count, the warming sweep must run at zero allocations per
// instruction, every blocking layer must thread context.Context, and
// the content-addressed checkpoint store key must cover every field
// that changes what a sweep captures. Each analyzer here turns one of
// those invariants into a build-time diagnostic:
//
//   - determinism: in bit-identity-critical packages, flags map
//     iteration that folds into order-sensitive results, wall-clock
//     reads (time.Now/Since), and the global math/rand source.
//   - hotpath: functions annotated //simlint:hotpath must stay
//     allocation-free — no closures, defer, heap composites, append,
//     fmt, or calls outside the hot-path/intrinsic set.
//   - ctx: exported functions in the blocking layers must take
//     context.Context first, never mint context.Background(), and
//     check ctx inside long loops.
//   - storekey: every field of a struct annotated //simlint:keystruct
//     must be referenced by the named key-hash function(s) or carry a
//     //simlint:nonkey reason — so growing the plan or the warm
//     geometry without extending the store key fails the build
//     instead of silently poisoning the checkpoint cache.
//   - errwrap: fmt.Errorf with an error operand must use %w, and the
//     store/journal/dist code must not discard error returns with
//     `_ =`.
//   - padding: a struct with a //simlint:hotpath pointer-receiver
//     method must start and end with a cacheline.Pad field or carry a
//     //simlint:unpadded reason, so no two simulation goroutines'
//     hot structs share a cache line.
//   - immutable: outside its own package, a struct annotated
//     //simlint:immutable (program.Program, which memoizes what it
//     derives from its fields) is never written — no field or element
//     assignment, no &field, no copy/append into one — and never
//     copied by value.
//
// The suite is stdlib-only: packages are parsed with go/parser and
// type-checked with go/types using the source importer, so the module
// stays dependency-free. See the package doc of the repository root
// (doc.go) for the annotation grammar and when a suppression reason
// is acceptable.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Config scopes a lint run. The zero value of the package lists
// selects the repository defaults; tests override them to point the
// analyzers at synthetic testdata packages.
type Config struct {
	// Dir is any directory inside the target module.
	Dir string

	// DeterminismPkgs lists the bit-identity-critical package import
	// paths the determinism analyzer covers.
	DeterminismPkgs []string
	// CtxPkgs lists the blocking-layer package import paths the ctx
	// analyzer covers.
	CtxPkgs []string
	// ErrDiscardPkgs lists the package import paths where discarding
	// an error return with a blank identifier is flagged.
	ErrDiscardPkgs []string
}

// Repository defaults for the analyzer package scopes.
var (
	defaultDeterminismPkgs = []string{
		"repro/internal/engine",
		"repro/internal/dist",
		"repro/internal/checkpoint",
		"repro/internal/stats",
		"repro/sim",
	}
	defaultCtxPkgs = []string{
		"repro/sim",
		"repro/internal/engine",
		"repro/internal/checkpoint",
		"repro/internal/dist",
	}
	defaultErrDiscardPkgs = []string{
		"repro/internal/checkpoint",
		"repro/internal/dist",
	}
)

// Diag is one diagnostic: a position, the analyzer that produced it,
// and the message.
type Diag struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one type-checked module package.
type Package struct {
	ImportPath string
	Dir        string
	FileNames  []string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	imports []string
	// directives maps file index -> line -> directive parsed from that
	// file's //simlint: comments.
	directives []map[int]*Directive
}

// Module is a loaded, type-checked module: every non-test package
// under the module root.
type Module struct {
	Path string
	Root string
	Fset *token.FileSet
	Pkgs map[string]*Package

	// funcDirectives maps a function object to the simlint directive
	// on its declaration (hotpath/coldpath), for cross-package callee
	// checks.
	funcDirectives map[*types.Func]*Directive
	// funcDecls indexes every function declaration in the module by
	// bare name, for the storekey analyzer's hash-function lookup.
	funcDecls map[string][]funcDecl
}

type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// Load parses and type-checks every non-test package in the module
// containing cfg.Dir. Type errors are returned as diagnostics: the
// analyzers require compile-clean input.
func Load(cfg Config) (*Module, []Diag, error) {
	root, modPath, err := findModule(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	m := &Module{
		Path:           modPath,
		Root:           root,
		Fset:           token.NewFileSet(),
		Pkgs:           map[string]*Package{},
		funcDirectives: map[*types.Func]*Directive{},
		funcDecls:      map[string][]funcDecl{},
	}
	if err := m.parseTree(); err != nil {
		return nil, nil, err
	}
	diags, err := m.typeCheck()
	if err != nil {
		return nil, nil, err
	}
	m.indexDecls()
	return m, diags, nil
}

// findModule walks upward from dir to the enclosing go.mod and
// returns the module root and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// parseTree walks the module root and parses every non-test package.
func (m *Module) parseTree() error {
	return filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		// A nested module is a separate unit; skip it.
		if path != m.Root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		return m.parseDir(path)
	})
}

func (m *Module) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		full := filepath.Join(dir, n)
		f, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
		names = append(names, full)
	}
	if len(files) == 0 {
		return nil
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return err
	}
	imp := m.Path
	if rel != "." {
		imp = m.Path + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{ImportPath: imp, Dir: dir, Files: files, FileNames: names}
	for _, f := range files {
		for _, is := range f.Imports {
			p := strings.Trim(is.Path.Value, `"`)
			if p == m.Path || strings.HasPrefix(p, m.Path+"/") {
				pkg.imports = append(pkg.imports, p)
			}
		}
		pkg.directives = append(pkg.directives, parseDirectives(m.Fset, f))
	}
	m.Pkgs[imp] = pkg
	return nil
}

// typeCheck type-checks the module packages in dependency order. The
// source importer supplies stdlib packages; module-internal imports
// resolve to already-checked packages.
func (m *Module) typeCheck() ([]Diag, error) {
	order, err := m.topoOrder()
	if err != nil {
		return nil, err
	}
	src := importer.ForCompiler(m.Fset, "source", nil).(types.ImporterFrom)
	var diags []Diag
	for _, imp := range order {
		pkg := m.Pkgs[imp]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{
			Importer: &moduleImporter{mod: m, fallback: src},
			Error: func(err error) {
				if te, ok := err.(types.Error); ok {
					diags = append(diags, Diag{
						Pos:      te.Fset.Position(te.Pos),
						Analyzer: "typecheck",
						Message:  te.Msg,
					})
				}
			},
		}
		tp, _ := conf.Check(imp, m.Fset, pkg.Files, info)
		pkg.Types = tp
		pkg.Info = info
	}
	return diags, nil
}

func (m *Module) topoOrder() ([]string, error) {
	var order []string
	state := map[string]int{} // 0 unseen, 1 visiting, 2 done
	var visit func(string) error
	visit = func(imp string) error {
		switch state[imp] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", imp)
		case 2:
			return nil
		}
		state[imp] = 1
		if pkg := m.Pkgs[imp]; pkg != nil {
			for _, dep := range pkg.imports {
				if err := visit(dep); err != nil {
					return err
				}
			}
			order = append(order, imp)
		}
		state[imp] = 2
		return nil
	}
	var all []string
	for imp := range m.Pkgs {
		all = append(all, imp)
	}
	sort.Strings(all)
	for _, imp := range all {
		if err := visit(imp); err != nil {
			return nil, err
		}
	}
	return order, nil
}

type moduleImporter struct {
	mod      *Module
	fallback types.ImporterFrom
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, "", 0)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := mi.mod.Pkgs[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: internal import %s not yet checked", path)
		}
		return pkg.Types, nil
	}
	return mi.fallback.ImportFrom(path, dir, mode)
}

// indexDecls builds the module-wide function directive and name
// indexes the analyzers consult across package boundaries.
func (m *Module) indexDecls() {
	for _, pkg := range m.Pkgs {
		for fi, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				m.funcDecls[fd.Name.Name] = append(m.funcDecls[fd.Name.Name], funcDecl{pkg: pkg, decl: fd})
				dir := pkg.funcDirective(m.Fset, fi, fd)
				if dir == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && obj != nil {
					m.funcDirectives[obj] = dir
				}
			}
		}
	}
}

// An Analyzer checks one package of a loaded module.
type Analyzer struct {
	Name string
	Run  func(m *Module, cfg Config, pkg *Package) []Diag
}

// Analyzers is the simlint suite in reporting order.
var Analyzers = []*Analyzer{
	{Name: "directive", Run: runDirectiveCheck},
	{Name: "determinism", Run: runDeterminism},
	{Name: "hotpath", Run: runHotpath},
	{Name: "ctx", Run: runCtx},
	{Name: "storekey", Run: runStorekey},
	{Name: "errwrap", Run: runErrwrap},
	{Name: "padding", Run: runPadding},
	{Name: "immutable", Run: runImmutable},
}

// Run loads the module around cfg.Dir and applies the full analyzer
// suite, returning diagnostics sorted by position.
func Run(cfg Config) ([]Diag, error) {
	if len(cfg.DeterminismPkgs) == 0 {
		cfg.DeterminismPkgs = defaultDeterminismPkgs
	}
	if len(cfg.CtxPkgs) == 0 {
		cfg.CtxPkgs = defaultCtxPkgs
	}
	if len(cfg.ErrDiscardPkgs) == 0 {
		cfg.ErrDiscardPkgs = defaultErrDiscardPkgs
	}
	mod, diags, err := Load(cfg)
	if err != nil {
		return nil, err
	}
	if len(diags) > 0 {
		// Type errors poison analysis; report them alone.
		sortDiags(diags)
		return diags, nil
	}
	var imps []string
	for imp := range mod.Pkgs {
		imps = append(imps, imp)
	}
	sort.Strings(imps)
	for _, imp := range imps {
		pkg := mod.Pkgs[imp]
		for _, a := range Analyzers {
			diags = append(diags, a.Run(mod, cfg, pkg)...)
		}
	}
	sortDiags(diags)
	return diags, nil
}

func sortDiags(diags []Diag) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
