package siphoc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// settableValues lists every value a user of the repository can set, by the
// rule DESIGN.md "Configuration surface" states: the exported fields of
// exported struct types whose name ends in Config, plus the exported
// top-level functions whose name starts with With (the functional options),
// in every non-test Go file outside bench/ and testdata/.
func settableValues(root string) ([]string, error) {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && decl.Name.IsExported() && strings.HasPrefix(decl.Name.Name, "With") {
					out = append(out, pkg+"."+decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.IsExported() {
								out = append(out, pkg+"."+ts.Name.Name+"."+name.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// TestSettableValueBudget holds the configuration surface to the count
// DESIGN.md records: a value that no experiment, workload, command or test
// needs at a non-default value is deleted, not added.
func TestSettableValueBudget(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`Settable values: \*\*(\d+)\*\*`).FindSubmatch(design)
	if m == nil {
		t.Fatal(`DESIGN.md records no "Settable values: **N**" line`)
	}
	budget, _ := strconv.Atoi(string(m[1]))
	values, err := settableValues(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(values) > budget {
		t.Fatalf("%d settable values, DESIGN.md allows %d:\n%s", len(values), budget, strings.Join(values, "\n"))
	}
	t.Logf("%d settable values (budget %d)", len(values), budget)
}
