package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches expectation comments in testdata sources:
//
//	// want determinism `appends into a result`
//	// want-1 storekey `unknown key-hash function`
//
// The optional -N offset anchors the expectation N lines above the
// comment, for diagnostics that land on directive lines where no
// trailing comment can go.
var wantRe = regexp.MustCompile("// want(-[0-9]+)? ([a-z]+) `([^`]+)`")

type expectation struct {
	file     string // base name
	line     int
	analyzer string
	substr   string
}

// loadExpectations scans every .go file under dir for want comments.
func loadExpectations(t *testing.T, dir string) []expectation {
	t.Helper()
	var wants []expectation
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for n := 1; sc.Scan(); n++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				line := n
				if m[1] != "" {
					off, _ := strconv.Atoi(m[1])
					line += off
				}
				wants = append(wants, expectation{
					file: filepath.Base(path), line: line, analyzer: m[2], substr: m[3],
				})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatalf("no want comments found under %s", dir)
	}
	return wants
}

// TestAnalyzersOnTestdata runs the full suite over the seeded testmod
// module and requires an exact match between produced diagnostics and
// want comments: every seeded violation fires, every fixed or
// annotated twin stays silent.
func TestAnalyzersOnTestdata(t *testing.T) {
	dir := filepath.Join("testdata", "src", "testmod")
	diags, err := Run(Config{
		Dir:             dir,
		DeterminismPkgs: []string{"testmod/det"},
		CtxPkgs:         []string{"testmod/ctxcheck"},
		ErrDiscardPkgs:  []string{"testmod/errw"},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wants := loadExpectations(t, dir)

	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if matched[i] || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.analyzer == d.Analyzer && strings.Contains(d.Message, w.substr) {
				matched[i], found = true, true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic: %s:%d [%s] containing %q", w.file, w.line, w.analyzer, w.substr)
		}
	}
}

// TestPerAnalyzerFires runs each analyzer in isolation over testmod
// and checks it produces at least one diagnostic from its own seed
// package — guarding against an analyzer being silently disabled.
func TestPerAnalyzerFires(t *testing.T) {
	dir := filepath.Join("testdata", "src", "testmod")
	cfg := Config{
		Dir:             dir,
		DeterminismPkgs: []string{"testmod/det"},
		CtxPkgs:         []string{"testmod/ctxcheck"},
		ErrDiscardPkgs:  []string{"testmod/errw"},
	}
	diags, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	for _, a := range []string{"determinism", "hotpath", "ctx", "storekey", "errwrap", "directive", "padding", "immutable"} {
		if byAnalyzer[a] == 0 {
			t.Errorf("analyzer %s produced no diagnostics on its seed package", a)
		}
	}
}

// TestRealModuleClean type-checks and lints the enclosing repository
// module — the same invocation CI runs — and requires zero
// diagnostics. Skipped in -short mode (the source importer compiles
// every dependency from source).
func TestRealModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("source-importer load of the full module is slow")
	}
	diags, err := Run(Config{Dir: filepath.Join("..", "..")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("real module violation: %s", d.String())
	}
	if len(diags) > 0 {
		t.Log("the tree must stay simlint-clean; fix or annotate with a reasoned //simlint directive")
	}
}

// TestDiagString pins the file:line:col rendering format CI greps.
func TestDiagString(t *testing.T) {
	d := Diag{Analyzer: "determinism", Message: "boom"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got, want := d.String(), "x.go:3:7: [determinism] boom"; got != want {
		t.Fatalf("Diag.String() = %q, want %q", got, want)
	}
}

// TestStorekeyDetectsDroppedReference is the acceptance check from the
// issue: deleting a field reference from a key-hash function must
// produce a storekey diagnostic. It rewrites the testmod hash function
// in a temp copy and re-runs the suite.
func TestStorekeyDetectsDroppedReference(t *testing.T) {
	src := filepath.Join("testdata", "src", "testmod")
	tmp := t.TempDir()
	if err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(tmp, rel)
		if info.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if rel == filepath.Join("storekey", "storekey.go") {
			// Drop the k.A reference from KeyText.
			data = []byte(strings.Replace(string(data),
				`return fmt.Sprintf("a=%s", k.A)`,
				`return fmt.Sprintf("a=%s", "")`, 1))
		}
		return os.WriteFile(dst, data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{
		Dir:             tmp,
		DeterminismPkgs: []string{"testmod/det"},
		CtxPkgs:         []string{"testmod/ctxcheck"},
		ErrDiscardPkgs:  []string{"testmod/errw"},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "field Key.A is not folded into the store key"
	for _, d := range diags {
		if d.Analyzer == "storekey" && strings.Contains(d.Message, want) {
			return
		}
	}
	t.Fatalf("dropping a key-hash field reference produced no storekey diagnostic; got:\n%s", diagDump(diags))
}

func diagDump(diags []Diag) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&b, d.String())
	}
	return b.String()
}
