package perftrack

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// contextFreeTwins are the context-free X beside an XCtx that may stay:
// bench/e2e's frozen replay calls them. ROADMAP item 2(b), which moves
// the replay to the Ctx forms, deletes them and empties this list.
// (compare.Executions, which the replay calls too, has no Ctx twin: it
// wraps compare.Sets.)
var contextFreeTwins = map[string]bool{
	"(*Store).LoadPTdf": true,
}

// TestNoContextFreeTwins checks that each store operation has one
// exported entry point, the one taking a context: no exported function
// or method X of datastore, query or compare may have an exported XCtx
// on the same receiver, outside contextFreeTwins. A listed twin that no
// longer exists fails too, so the list stays exact.
func TestNoContextFreeTwins(t *testing.T) {
	// Every exported function and method, as "query.RetrieveCtx" or
	// "(*Store).LoadPTdf".
	exported := map[string]bool{}
	for _, dir := range []string{"internal/datastore", "internal/query", "internal/compare"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fn, ok := d.(*ast.FuncDecl)
					if !ok || !fn.Name.IsExported() {
						continue
					}
					owner := filepath.Base(dir)
					if fn.Recv != nil {
						owner = "(" + recvName(fn.Recv.List[0].Type) + ")"
					}
					exported[owner+"."+fn.Name.Name] = true
				}
			}
		}
	}
	var twins []string
	for key := range exported {
		if exported[key+"Ctx"] && !contextFreeTwins[key] {
			twins = append(twins, key)
		}
	}
	sort.Strings(twins)
	for _, key := range twins {
		t.Errorf("%s has a context-taking twin %sCtx: delete it and call the Ctx form", key, key)
	}
	for key := range contextFreeTwins {
		if !exported[key] || !exported[key+"Ctx"] {
			t.Errorf("%s is no longer a twin: remove it from contextFreeTwins", key)
		}
	}
}

// recvName renders a receiver type expression: T, *T, or either with type
// parameters dropped.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// fanOutOwners are the files that may declare a sync.WaitGroup: par, the
// one fan-out, and the ordered ingest pipeline, whose width a load
// request sets.
var fanOutOwners = map[string]bool{
	"internal/par/par.go":        true,
	"internal/datastore/bulk.go": true,
}

// TestOneFanOut checks that every parallel read and scoring pass goes
// through internal/par at GOMAXPROCS width: no non-test file under
// internal/, cmd/ or examples/ outside fanOutOwners declares a
// sync.WaitGroup, and no exported struct under internal/ has a Workers
// field.
func TestOneFanOut(t *testing.T) {
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && n.Sel.Name == "WaitGroup" && !fanOutOwners[filepath.ToSlash(path)] {
						t.Errorf("%s: declares a sync.WaitGroup: fan out through internal/par", fset.Position(n.Pos()))
					}
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok || !n.Name.IsExported() || root != "internal" {
						return true
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.Name == "Workers" {
								t.Errorf("%s: %s has a Workers field: every fan-out is GOMAXPROCS wide", fset.Position(name.Pos()), n.Name.Name)
							}
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
