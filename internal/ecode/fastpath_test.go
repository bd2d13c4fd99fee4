package ecode

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// --- VM reuse ---

// TestReusedVMMatchesFreshVM runs the random-program torture corpus twice —
// once on a fresh VM per run, once on one VM reused for every trial, the way
// d-mon reuses the VM it owns across polls — and demands identical results,
// errors and outputs. Every tenth trial the reused VM first runs a filter
// that fails mid-expression, unwinding out of its generated code. A VM that
// leaked locals, step count or result from one run into the next would
// diverge here.
func TestReusedVMMatchesFreshVM(t *testing.T) {
	rng := rand.New(rand.NewSource(7421))
	g := &progGen{rng: rng}
	reused := NewVM()
	failing := MustCompile("int zero = 0; int k = 7; return k + k * (k / zero);", nil)
	for trial := 0; trial < 200; trial++ {
		if trial%10 == 0 {
			if _, err := failing.Run(reused, failing.NewEnv(0)); !errors.Is(err, ErrDivZero) {
				t.Fatalf("trial %d: failing filter returned %v, want ErrDivZero", trial, err)
			}
		}
		src := g.program(rng.Intn(8) + 1)
		f, err := Compile(src, nil)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		mkEnv := func() *Env {
			env := f.NewEnv(4)
			env.Input = []Record{{ID: 5, Value: 1.25, LastSent: 1.0, Timestamp: 10}}
			return env
		}
		envFresh, envReused := mkEnv(), mkEnv()
		resFresh, errFresh := f.Run(NewVM(), envFresh)
		resReused, errReused := f.Run(reused, envReused)
		if (errFresh == nil) != (errReused == nil) {
			t.Fatalf("trial %d: error mismatch fresh=%v reused=%v\n%s", trial, errFresh, errReused, src)
		}
		if errFresh != nil {
			continue
		}
		if resFresh != resReused {
			t.Fatalf("trial %d: result mismatch fresh=%+v reused=%+v\n%s", trial, resFresh, resReused, src)
		}
		if envFresh.OutCount() != envReused.OutCount() {
			t.Fatalf("trial %d: OutCount mismatch %d vs %d\n%s", trial, envFresh.OutCount(), envReused.OutCount(), src)
		}
		for i := 0; i < envFresh.OutCount(); i++ {
			if envFresh.Output[i] != envReused.Output[i] {
				t.Fatalf("trial %d: output[%d] mismatch\n%s", trial, i, src)
			}
		}
	}
}

// TestReusedVMRunIsAllocationFree pins the steady-state cost of a filter run
// on a VM the caller owns: once its locals have grown, Run allocates
// nothing.
func TestReusedVMRunIsAllocationFree(t *testing.T) {
	f := MustCompile(paperFigure3, testSpec())
	vm := NewVM()
	env := figure3Env(f, 3.0, 20000, 40e6, 9000, 8000)
	run := func() {
		env.Reset()
		if _, err := f.Run(vm, env); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the VM's locals
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("filter run on a reused VM allocates %.1f times per run, want 0", avg)
	}
}

// --- compiled-filter cache ---

func TestCompileCachedHitSkipsFrontEnd(t *testing.T) {
	ResetFilterCache()
	defer ResetFilterCache()
	spec := testSpec()
	f1, err := CompileCached(paperFigure3, spec)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := CompileCached(paperFigure3, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Pointer identity is the pin: the second deployment got the same Filter
	// object back, so no lexer/parser/checker/compiler ran for it.
	if f1 != f2 {
		t.Fatal("second CompileCached of identical (source, spec) recompiled instead of hitting the cache")
	}
	st := FilterCacheStats()
	if st.Misses != 1 || st.Hits != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, size 1", st)
	}
}

func TestCompileCachedDistinguishesSpecs(t *testing.T) {
	ResetFilterCache()
	defer ResetFilterCache()
	src := "return THRESH;"
	f1, err := CompileCached(src, &EnvSpec{Consts: map[string]int64{"THRESH": 1}})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := CompileCached(src, &EnvSpec{Consts: map[string]int64{"THRESH": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f2 {
		t.Fatal("same source under different specs shared one cache entry")
	}
	r1, _ := f1.Run(nil, f1.NewEnv(0))
	r2, _ := f2.Run(nil, f2.NewEnv(0))
	if r1.Int != 1 || r2.Int != 2 {
		t.Fatalf("cached filters bound to wrong specs: %d, %d", r1.Int, r2.Int)
	}
	if st := FilterCacheStats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses, 0 hits", st)
	}
}

func TestCompileCachedDoesNotCacheFailures(t *testing.T) {
	ResetFilterCache()
	defer ResetFilterCache()
	const bad = "return ) broken;"
	for i := 0; i < 2; i++ {
		if _, err := CompileCached(bad, nil); err == nil {
			t.Fatal("invalid source compiled")
		}
	}
	if st := FilterCacheStats(); st.Size != 0 || st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want failures uncached (2 misses, size 0)", st)
	}
}

// TestCompileCachedConcurrent hammers the cache from many goroutines mixing
// hits and misses; run under -race it pins the locking.
func TestCompileCachedConcurrent(t *testing.T) {
	ResetFilterCache()
	defer ResetFilterCache()
	srcs := []string{
		"return 1;", "return 2;", "return 3;", paperFigure3,
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			spec := testSpec()
			for i := 0; i < 100; i++ {
				src := srcs[(g+i)%len(srcs)]
				if _, err := CompileCached(src, spec); err != nil {
					t.Errorf("compile %q: %v", src, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := FilterCacheStats(); st.Size != len(srcs) {
		t.Fatalf("cache holds %d entries, want %d", st.Size, len(srcs))
	}
}

// BenchmarkCompile times the whole front end and code generator on a
// two-clause threshold filter: the cost a deployment pays once, and what
// CompileCached saves on every redeployment.
func BenchmarkCompile(b *testing.B) {
	spec := testSpec()
	src := `
int i = 0;
if(input[LOADAVG].value > 2){ output[i] = input[LOADAVG]; i = i + 1; }
if(input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent){ output[i] = input[CACHE_MISS]; i = i + 1; }`
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// CacheStats reports compiled-filter cache traffic since the last reset.
type CacheStats struct {
	Hits   uint64 // compilations answered from the cache
	Misses uint64 // full parse/check/compile pipelines run
	Size   int    // filters currently cached
}

// FilterCacheStats returns a snapshot of the cache counters.
func FilterCacheStats() CacheStats {
	filterCache.Lock()
	defer filterCache.Unlock()
	return CacheStats{Hits: filterCache.hits, Misses: filterCache.misses, Size: len(filterCache.m)}
}

// ResetFilterCache empties the cache and zeroes its counters (for tests).
func ResetFilterCache() {
	filterCache.Lock()
	defer filterCache.Unlock()
	filterCache.m = map[string]*Filter{}
	filterCache.hits, filterCache.misses = 0, 0
}
