package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed //simlint:<verb> [args...] comment. The
// grammar (documented in the repository root doc.go):
//
//	//simlint:hotpath
//	//simlint:coldpath <reason>
//	//simlint:ordered <reason>
//	//simlint:noctx <reason>
//	//simlint:nonkey <reason>
//	//simlint:keystruct <Func> [<Func>...]
//	//simlint:nowrap <reason>
//	//simlint:discard <reason>
//	//simlint:unpadded <reason>
//	//simlint:immutable
//
// Every suppression verb requires a reason string; hotpath and
// immutable mark an obligation rather than a suppression and take
// none; keystruct names the key-hash function(s) its struct must be
// covered by.
type Directive struct {
	Verb string
	// Args is the remainder after the verb: a reason string, or for
	// keystruct the hash-function names.
	Args string
	Pos  token.Pos
	Line int
}

const directivePrefix = "//simlint:"

// reasonRequired reports whether the verb demands a non-empty reason.
func reasonRequired(verb string) bool {
	switch verb {
	case "hotpath", "keystruct", "immutable":
		return false
	}
	return true
}

func knownVerb(verb string) bool {
	switch verb {
	case "hotpath", "coldpath", "ordered", "noctx", "nonkey", "keystruct", "nowrap", "discard", "unpadded", "immutable":
		return true
	}
	return false
}

// parseDirectives extracts every simlint directive in f, keyed by the
// line the comment sits on.
func parseDirectives(fset *token.FileSet, f *ast.File) map[int]*Directive {
	out := map[int]*Directive{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			verb, args, _ := strings.Cut(text, " ")
			line := fset.Position(c.Pos()).Line
			out[line] = &Directive{
				Verb: verb,
				Args: strings.TrimSpace(args),
				Pos:  c.Pos(),
				Line: line,
			}
		}
	}
	return out
}

// fileIndex returns the index of the file containing pos, or -1.
func (p *Package) fileIndex(fset *token.FileSet, pos token.Pos) int {
	name := fset.Position(pos).Filename
	for i, fn := range p.FileNames {
		if fn == name {
			return i
		}
	}
	return -1
}

// directiveAt returns a directive attached to the node starting at
// pos: on the same line, or alone on the line immediately above.
func (p *Package) directiveAt(fset *token.FileSet, fi int, pos token.Pos, verb string) *Directive {
	if fi < 0 || fi >= len(p.directives) {
		return nil
	}
	line := fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		if d := p.directives[fi][l]; d != nil && d.Verb == verb {
			return d
		}
	}
	return nil
}

// funcDirective returns the hotpath or coldpath directive on a
// function declaration: in its doc comment or on its first line.
func (p *Package) funcDirective(fset *token.FileSet, fi int, fd *ast.FuncDecl) *Directive {
	for _, verb := range [2]string{"hotpath", "coldpath"} {
		if d := p.directiveAt(fset, fi, fd.Pos(), verb); d != nil {
			return d
		}
		if fd.Doc != nil {
			for _, c := range fd.Doc.List {
				if text, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
					v, args, _ := strings.Cut(text, " ")
					if v == verb {
						return &Directive{Verb: v, Args: strings.TrimSpace(args), Pos: c.Pos(), Line: fset.Position(c.Pos()).Line}
					}
				}
			}
		}
	}
	return nil
}

// suppressedAt reports whether a diagnostic at pos is suppressed by a
// directive with the given verb on the same line, the line above, or
// the enclosing function declaration (fd may be nil).
func (p *Package) suppressedAt(fset *token.FileSet, pos token.Pos, fd *ast.FuncDecl, verb string) bool {
	fi := p.fileIndex(fset, pos)
	if d := p.directiveAt(fset, fi, pos, verb); d != nil {
		return true
	}
	if fd != nil {
		if d := p.directiveAt(fset, fi, fd.Pos(), verb); d != nil {
			return true
		}
		if fd.Doc != nil {
			for _, c := range fd.Doc.List {
				if text, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
					v, _, _ := strings.Cut(text, " ")
					if v == verb {
						return true
					}
				}
			}
		}
	}
	return false
}

// runDirectiveCheck validates the directives themselves: unknown
// verbs and missing reasons are diagnostics, so a suppression can
// never silently misfire.
func runDirectiveCheck(m *Module, cfg Config, pkg *Package) []Diag {
	var diags []Diag
	for _, fileDirs := range pkg.directives {
		for _, d := range fileDirs {
			switch {
			case !knownVerb(d.Verb):
				diags = append(diags, Diag{
					Pos:      m.Fset.Position(d.Pos),
					Analyzer: "directive",
					Message:  "unknown simlint directive " + d.Verb,
				})
			case reasonRequired(d.Verb) && d.Args == "":
				diags = append(diags, Diag{
					Pos:      m.Fset.Position(d.Pos),
					Analyzer: "directive",
					Message:  "simlint:" + d.Verb + " requires a reason",
				})
			case d.Verb == "keystruct" && d.Args == "":
				diags = append(diags, Diag{
					Pos:      m.Fset.Position(d.Pos),
					Analyzer: "directive",
					Message:  "simlint:keystruct must name the key-hash function(s)",
				})
			}
		}
	}
	return diags
}

// enclosingFunc returns the function declaration in f whose body
// spans pos, or nil.
func enclosingFunc(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
