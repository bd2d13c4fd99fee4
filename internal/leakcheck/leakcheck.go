// Package leakcheck is the one goroutine-count check the test suites share:
// a test that starts goroutines states how many may be running once it has
// stopped them, and gets every stack when that does not come true. Main is
// the same check over a whole package's run.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Goroutines polls until the process goroutine count lies in [lo, hi],
// failing the test with a full stack dump after 10 s. A leak check passes
// (0, count before the work started); a census that pins an exact cost
// passes the same number twice. GC runs between polls so goroutines held
// only by finalizers cannot produce false leaks.
func Goroutines(t testing.TB, what string, lo, hi int) {
	t.Helper()
	if n, stacks := settle(lo, hi); stacks != nil {
		t.Fatalf("%s: %d goroutines, want %d..%d\n%s", what, n, lo, hi, stacks)
	}
}

// Main runs a package's tests, then holds the package to the same check:
// once every test has returned, the goroutine count must fall back to what
// it was before the first one started, or the run fails with every stack.
// Use it as the package's TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
func Main(m *testing.M) {
	before, signals := runtime.NumGoroutine(), signalLoops()
	code := m.Run()
	if code == 0 {
		// The first os/signal.Notify starts a goroutine that runs for the
		// rest of the process. The fuzzing engine calls it, so under -fuzz
		// that one goroutine is the testing package's, not a leak.
		want := before + signalLoops() - signals
		if n, stacks := settle(0, want); stacks != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after the package's tests, want at most %d\n%s", n, want, stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// signalLoops counts the goroutines running os/signal's delivery loop.
func signalLoops() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("\nos/signal.loop("))
}

// settle polls until the goroutine count lies in [lo, hi]. It returns the
// last count and, if the count never got there within 10 s, every
// goroutine's stack.
func settle(lo, hi int) (int, []byte) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if lo <= n && n <= hi {
			return n, nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return n, buf[:runtime.Stack(buf, true)]
		}
		time.Sleep(5 * time.Millisecond)
	}
}
