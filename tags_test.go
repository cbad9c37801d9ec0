package noisewave_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoOmitzeroTags fails on every struct tag in the repository's Go
// files, perfbench/ and tests included, that uses the omitzero option.
// go.mod declares Go 1.22, whose encoding/json ignores omitzero (Go 1.24
// added it), so such a field encodes its zero value under one toolchain
// and omits it under the other. A pointer under omitempty is omitted by
// both.
func TestNoOmitzeroTags(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			field, ok := n.(*ast.Field)
			if !ok || field.Tag == nil {
				return true
			}
			if tag, err := strconv.Unquote(field.Tag.Value); err == nil && strings.Contains(tag, "omitzero") {
				t.Errorf("%s: struct tag %s uses omitzero, which Go 1.22 ignores; use a pointer with omitempty",
					fset.Position(field.Tag.Pos()), field.Tag.Value)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
