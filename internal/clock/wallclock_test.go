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
// package's own, and opens its sockets through a wire.Transport, never the
// net package's own.
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

// kernelSocketFuncs are the net package's functions that open a kernel
// socket, and the two types whose methods do.
var kernelSocketFuncs = map[string]bool{
	"Listen": true, "ListenPacket": true, "ListenTCP": true, "ListenUDP": true,
	"ListenUnix": true, "ListenUnixgram": true, "ListenIP": true, "ListenMulticastUDP": true,
	"Dial": true, "DialTimeout": true, "DialTCP": true, "DialUDP": true, "DialUnix": true, "DialIP": true,
	"ListenConfig": true, "Dialer": true,
}

// kernelSocketAllowed lists the kernel-socket opens that stay, keyed like
// wallClockAllowed: none — a node's sockets come from its transport
// (core.Config.Transport), whose TCP is wire.TCP.
var kernelSocketAllowed = map[string]string{}

// TestNoWallClockCalls walks the non-test source of the simulated packages
// and fails on any reference to a wall-clock function of the time package
// outside wallClockAllowed — and on an allow-list entry nothing uses any
// more.
func TestNoWallClockCalls(t *testing.T) {
	checkCalls(t, "time", wallClockFuncs, wallClockAllowed,
		"reads the wall clock; use the node clock or the I/O clock (clock.IO)")
}

// TestNoKernelSockets is the same walk over the net package's socket
// openers: a listener or a dial in the simulated packages goes through the
// node's wire.Transport, so a fault fabric or an in-memory transport sees
// every connection.
func TestNoKernelSockets(t *testing.T) {
	checkCalls(t, "net", kernelSocketFuncs, kernelSocketAllowed,
		"opens a kernel socket; listen and dial through a wire.Transport")
}

// checkCalls walks the non-test source of the simulated packages and fails
// on any reference to one of funcs through an import of pkg outside
// allowed, and on an allow-list entry nothing uses any more.
func checkCalls(t *testing.T, pkg string, funcs map[string]bool, allowed map[string]string, why string) {
	t.Helper()
	used := map[string]bool{}
	for _, sim := range simulatedPackages {
		dir := filepath.Join("..", sim)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no source found (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, site := range callSites(t, path, pkg, funcs) {
				key := sim + "/" + filepath.Base(path) + " " + site.fn + " " + pkg + "." + site.name
				if _, ok := allowed[key]; ok {
					used[key] = true
					continue
				}
				t.Errorf("%s: %s.%s in %s %s, or allow-list %q with a reason",
					site.pos, pkg, site.name, site.fn, why, key)
			}
		}
	}
	var stale []string
	for key := range allowed {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("allow-list entry %q matches no use: remove it", key)
	}
}

type callSite struct {
	pos  token.Position
	fn   string // enclosing function, "Type.Method" for methods, "" at package level
	name string // the function of the checked package
}

// callSites returns every reference to one of funcs through path's import
// of pkg, whatever name it is imported under.
func callSites(t *testing.T, path, pkg string, funcs map[string]bool) []callSite {
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
	pkgName := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == pkg {
			pkgName = pkg
			if imp.Name != nil {
				pkgName = imp.Name.Name
			}
		}
	}
	if pkgName == "" || pkgName == "_" {
		return nil
	}
	var sites []callSite
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
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkgName && x.Obj == nil && funcs[sel.Sel.Name] {
				sites = append(sites, callSite{pos: fset.Position(sel.Pos()), fn: fn, name: sel.Sel.Name})
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
