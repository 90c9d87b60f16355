package main

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeOnly keeps the benchmark on the public façade: the layers
// behind blockadt/pkg/blockadt may be rebuilt without editing it, and a
// benchmark that reached past the façade would stop measuring what users
// call.
func TestFacadeOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found")
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(path, "blockadt/internal/") {
				t.Errorf("%s imports %s; the benchmark may use only blockadt/pkg/blockadt", fset.Position(imp.Pos()), path)
			}
		}
	}
}
