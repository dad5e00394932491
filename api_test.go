package fabp

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoContextTwins guards the exported surface against twins: no
// exported function, and no method of one receiver, may exist both as X
// and as XContext. Each operation keeps one context-taking form.
func TestNoContextTwins(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "fabp")
	if err != nil {
		t.Fatal(err)
	}
	twins := func(scope string, funcs []*doc.Func) {
		names := map[string]bool{}
		for _, f := range funcs {
			names[f.Name] = true
		}
		for _, f := range funcs {
			if base, ok := strings.CutSuffix(f.Name, "Context"); ok && names[base] {
				t.Errorf("%s%s and %s%s are twins: keep the context-taking form only", scope, base, scope, f.Name)
			}
		}
	}
	// go/doc files constructors under the type they return; they are
	// package-level functions all the same.
	funcs := pkg.Funcs
	for _, typ := range pkg.Types {
		funcs = append(funcs, typ.Funcs...)
		twins(typ.Name+".", typ.Methods)
	}
	twins("", funcs)
}
