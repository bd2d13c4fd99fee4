package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// simulatedPackages are the packages a whole-system simulation runs. Their
// code reads the node clock or the I/O clock (DESIGN.md §11), never the time
// package's own.
var simulatedPackages = []string{"kecho", "core", "query", "adminproto", "registry"}

// wallClockFuncs are the time package's functions that read or wait on the
// wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true,
}

// wallClockAllowed lists the wall-clock uses that stay, keyed
// "<package>/<file> <function> time.<Func>", each with why.
var wallClockAllowed = map[string]string{
	"query/query.go Run time.Now":   "Result.Elapsed and NodeStatus.Elapsed are wall latencies an operator reads, not monitoring time",
	"query/query.go Run time.Since": "Result.Elapsed and NodeStatus.Elapsed are wall latencies an operator reads, not monitoring time",
}

// TestNoWallClockCalls walks the non-test source of the simulated packages
// and fails on any reference to a wall-clock function of the time package
// outside wallClockAllowed — and on an allow-list entry nothing uses any
// more.
func TestNoWallClockCalls(t *testing.T) {
	used := map[string]bool{}
	for _, pkg := range simulatedPackages {
		dir := filepath.Join("..", pkg)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no source found (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, site := range wallClockSites(t, path) {
				key := pkg + "/" + filepath.Base(path) + " " + site.fn + " time." + site.name
				if _, ok := wallClockAllowed[key]; ok {
					used[key] = true
					continue
				}
				t.Errorf("%s: time.%s in %s reads the wall clock; use the node clock or the I/O clock (clock.IO), or allow-list %q with a reason",
					site.pos, site.name, site.fn, key)
			}
		}
	}
	var stale []string
	for key := range wallClockAllowed {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("allow-list entry %q matches no wall-clock use: remove it", key)
	}
}

type wallClockSite struct {
	pos  token.Position
	fn   string // enclosing function, "Type.Method" for methods, "" at package level
	name string // the time package function
}

// wallClockSites returns every reference to a wallClockFuncs function
// through path's import of "time", whatever name it is imported under.
func wallClockSites(t *testing.T, path string) []wallClockSite {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	timeName := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	if timeName == "" || timeName == "_" {
		return nil
	}
	var sites []wallClockSite
	for _, decl := range f.Decls {
		fn := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				fn = receiverType(fd.Recv.List[0].Type) + "." + fn
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName && x.Obj == nil && wallClockFuncs[sel.Sel.Name] {
				sites = append(sites, wallClockSite{pos: fset.Position(sel.Pos()), fn: fn, name: sel.Sel.Name})
			}
			return true
		})
	}
	return sites
}

// receiverType names a method receiver's type, without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
