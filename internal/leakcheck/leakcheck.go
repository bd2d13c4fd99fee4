// Package leakcheck is the one goroutine-count check the test suites share:
// a test that starts goroutines states how many may be running once it has
// stopped them, and gets every stack when that does not come true.
package leakcheck

import (
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
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if lo <= n && n <= hi {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines, want %d..%d\n%s", what, n, lo, hi, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
