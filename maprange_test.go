package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modelPackages are the packages a simulated cycle count is computed in.
var modelPackages = []string{"core", "cache", "prefetch", "branch", "dram", "ibda", "emu"}

// mapRangeAllowed lists, as "package/file.go: func", the functions of the
// model packages that may range over a map, each with why the order cannot
// reach a result. internal/prefetch has no entry since PR 28: GHB's index,
// whose encoder and clone ranged over it, was that package's last map.
var mapRangeAllowed = map[string]string{
	"core/stats.go: Merge": "adds integer counters key by key: any order gives the same sums",
}

// TestNoMapRangeInModel fails on a `for … range m` with m of map type in
// non-test code of the model packages: Go randomises map iteration, and a
// model that iterates one gives a result that differs between two runs of
// one binary — as prefetch.Stream's "evict the first key range yields" did
// until PR 28 (ROADMAP item 1). Types come from go/types over the parsed
// source, so a map behind a named type, a field or a call is seen too.
func TestNoMapRangeInModel(t *testing.T) {
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	used := map[string]bool{}
	for _, name := range modelPackages {
		dir := filepath.Join("internal", name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, e := range entries {
			if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := conf.Check("crisp/internal/"+name, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				site := fmt.Sprintf("%s/%s: %s", name, filepath.Base(fset.Position(f.Pos()).Filename), fn.Name.Name)
				ast.Inspect(fn, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := info.Types[rs.X].Type.Underlying().(*types.Map); isMap {
						if used[site] = true; mapRangeAllowed[site] == "" {
							t.Errorf("%s: ranges over a map (%s): iteration order would reach the model", fset.Position(rs.Pos()), site)
						}
					}
					return true
				})
			}
		}
	}
	for site := range mapRangeAllowed {
		if !used[site] {
			t.Errorf("allowlist entry %q matches no map range any more: delete it", site)
		}
	}
}
