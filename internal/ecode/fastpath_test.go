package ecode

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// --- VMPool ---

// TestVMPoolConcurrentRuns drives shared filters through one VMPool from many
// goroutines; run under -race (make check) it pins that pooled execution
// never shares VM state between concurrent runs.
func TestVMPoolConcurrentRuns(t *testing.T) {
	filters := []*Filter{
		MustCompile("return 2 + 3;", nil),
		MustCompile(paperFigure3, testSpec()),
		MustCompile("int s = 0; for (int i = 0; i < 50; i++) { s += i; } return s;", nil),
	}
	// Four input records satisfy every filter's indexing (figure3Env shape).
	mkEnv := func(f *Filter) *Env {
		env := f.NewEnv(8)
		env.Input = []Record{
			{ID: 0, Value: 3.0, LastSent: 3.0},
			{ID: 1, Value: 20000, LastSent: 20000},
			{ID: 2, Value: 40e6, LastSent: 40e6},
			{ID: 3, Value: 9000, LastSent: 8000},
		}
		return env
	}
	want := make([]Result, len(filters))
	for i, f := range filters {
		res, err := f.Run(nil, mkEnv(f))
		if err != nil {
			t.Fatalf("filter %d: %v", i, err)
		}
		want[i] = res
	}
	pool := NewVMPool()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := (g + iter) % len(filters)
				f := filters[i]
				res, err := pool.Run(f, mkEnv(f))
				if err != nil {
					errs <- err
					return
				}
				if res != want[i] {
					t.Errorf("goroutine %d iter %d: filter %d returned %+v, want %+v", g, iter, i, res, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("pooled run failed: %v", err)
	}
}

// TestPooledVMMatchesFreshVM runs the random-program torture corpus twice —
// once on fresh VMs, once through a shared pool that recycles a handful of
// VMs across all trials — and demands identical results, errors and outputs.
// A VM that leaked stack or locals state across runs would diverge here.
func TestPooledVMMatchesFreshVM(t *testing.T) {
	rng := rand.New(rand.NewSource(7421))
	g := &progGen{rng: rng}
	pool := NewVMPool()
	for trial := 0; trial < 200; trial++ {
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
		envFresh, envPool := mkEnv(), mkEnv()
		resFresh, errFresh := f.Run(NewVM(), envFresh)
		resPool, errPool := pool.Run(f, envPool)
		if (errFresh == nil) != (errPool == nil) {
			t.Fatalf("trial %d: error mismatch fresh=%v pooled=%v\n%s", trial, errFresh, errPool, src)
		}
		if errFresh != nil {
			continue
		}
		if resFresh != resPool {
			t.Fatalf("trial %d: result mismatch fresh=%+v pooled=%+v\n%s", trial, resFresh, resPool, src)
		}
		if envFresh.OutCount() != envPool.OutCount() {
			t.Fatalf("trial %d: OutCount mismatch %d vs %d\n%s", trial, envFresh.OutCount(), envPool.OutCount(), src)
		}
		for i := 0; i < envFresh.OutCount(); i++ {
			if envFresh.Output[i] != envPool.Output[i] {
				t.Fatalf("trial %d: output[%d] mismatch\n%s", trial, i, src)
			}
		}
	}
}

// TestVMPoolRunIsAllocationFree pins the steady-state cost of a pooled
// filter run: after warm-up, Run allocates nothing.
func TestVMPoolRunIsAllocationFree(t *testing.T) {
	f := MustCompile(paperFigure3, testSpec())
	pool := NewVMPool()
	env := figure3Env(f, 3.0, 20000, 40e6, 9000, 8000)
	run := func() {
		env.Reset()
		if _, err := pool.Run(f, env); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool and the VM scratch
	// Under the race detector sync.Pool drops a quarter of Puts at random,
	// each costing a fresh VM; over 1000 runs those stay far below one
	// allocation per run, where over 100 they crossed it about once in 50.
	if avg := testing.AllocsPerRun(1000, run); avg != 0 {
		t.Fatalf("pooled filter run allocates %.1f times per run, want 0", avg)
	}
}

// --- superinstruction fusion ---

// fusionAblation compiles src twice — default pipeline and fusion disabled —
// and asserts identical behaviour.
func fusionAblation(t *testing.T, src string, spec *EnvSpec) {
	t.Helper()
	fused, err := CompileWithOptions(src, spec, Options{})
	if err != nil {
		t.Fatalf("compile fused: %v\n%s", err, src)
	}
	plain, err := CompileWithOptions(src, spec, Options{DisableFuse: true})
	if err != nil {
		t.Fatalf("compile unfused: %v\n%s", err, src)
	}
	mkEnv := func(f *Filter) *Env {
		env := f.NewEnv(8)
		env.Input = []Record{
			{ID: 0, Value: 1.25, LastSent: 1.0, Timestamp: 10},
			{ID: 1, Value: 20000, LastSent: 20000},
			{ID: 2, Value: 40e6, LastSent: 40e6},
			{ID: 3, Value: 9000, LastSent: 8000},
		}
		return env
	}
	envF, envP := mkEnv(fused), mkEnv(plain)
	resF, errF := fused.Run(nil, envF)
	resP, errP := plain.Run(nil, envP)
	if (errF == nil) != (errP == nil) {
		t.Fatalf("error mismatch fused=%v plain=%v\n%s\nfused:\n%s", errF, errP, src, fused.Program().Disassemble())
	}
	if errF != nil {
		return
	}
	if resF != resP {
		t.Fatalf("result mismatch fused=%+v plain=%+v\n%s\nfused:\n%s", resF, resP, src, fused.Program().Disassemble())
	}
	if envF.OutCount() != envP.OutCount() {
		t.Fatalf("OutCount mismatch %d vs %d\n%s", envF.OutCount(), envP.OutCount(), src)
	}
	for i := 0; i < envF.OutCount(); i++ {
		if envF.Output[i] != envP.Output[i] {
			t.Fatalf("output[%d] mismatch\n%s", i, src)
		}
	}
}

func TestFusionParityOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20030624))
	g := &progGen{rng: rng}
	for trial := 0; trial < 300; trial++ {
		fusionAblation(t, g.program(rng.Intn(8)+1), nil)
	}
}

func TestFusionParityOnPaperFilter(t *testing.T) {
	fusionAblation(t, paperFigure3, testSpec())
}

// TestThresholdFilterGetsFused pins that the pass actually fires on the
// paper's filter shape: a runtime threshold test compiles to a fused
// compare-and-branch, with no bare comparison feeding a conditional jump
// left behind.
func TestThresholdFilterGetsFused(t *testing.T) {
	src := "if (input[0].value > input[0].last_value_sent) { return 1; } return 0;"
	f := MustCompile(src, nil)
	code := f.Program().Code
	fusedSeen := false
	for i, in := range code {
		switch in.Op {
		case OpJCmpIZ, OpJCmpINZ, OpJCmpFZ, OpJCmpFNZ:
			fusedSeen = true
		case OpJumpZ, OpJumpNZ:
			if i > 0 {
				switch code[i-1].Op {
				case OpEqI, OpNeI, OpLtI, OpLeI, OpGtI, OpGeI,
					OpEqF, OpNeF, OpLtF, OpLeF, OpGtF, OpGeF:
					t.Fatalf("unfused compare-and-branch at pc %d:\n%s", i, f.Program().Disassemble())
				}
			}
		}
	}
	if !fusedSeen {
		t.Fatalf("no fused opcode in threshold filter:\n%s", f.Program().Disassemble())
	}
	if !strings.Contains(f.Program().Disassemble(), "jcmp") {
		t.Fatalf("disassembly does not show the fused condition:\n%s", f.Program().Disassemble())
	}
}

// TestFuseRespectsJumpTargets builds bytecode where the conditional branch
// is itself a jump target — a control path reaches the branch without the
// comparison — and pins that the pass leaves the pair alone and that both
// programs behave identically.
func TestFuseRespectsJumpTargets(t *testing.T) {
	// 0: consti 1
	// 1: jump 4        (skip the comparison, land on the branch's operand push)
	// 2: consti 10
	// 3: lti           (would fuse with 4 if 4 were not a target... but the
	//                   jump at 1 targets 4, so the pair must survive)
	// 4: jumpz 6
	// 5: reti(consti 7) -- fallthrough when branch not taken
	// 6: consti 9; reti
	code := []Instr{
		{Op: OpConstI, I: 1},  // 0: push 1 (truthy condition value)
		{Op: OpJump, A: 4},    // 1: jump straight to the branch
		{Op: OpConstI, I: 10}, // 2: (skipped) push 10
		{Op: OpLtI},           // 3: (skipped) 1 < 10
		{Op: OpJumpZ, A: 7},   // 4: branch on whatever is on the stack
		{Op: OpConstI, I: 7},  // 5
		{Op: OpRetI},          // 6: return 7
		{Op: OpConstI, I: 9},  // 7
		{Op: OpRetI},          // 8: return 9
	}
	fused := fuseProgram(append([]Instr(nil), code...))
	for _, in := range fused {
		switch in.Op {
		case OpJCmpIZ, OpJCmpINZ, OpJCmpFZ, OpJCmpFNZ:
			t.Fatalf("fused a branch that is a jump target:\n%s", (&Program{Code: fused}).Disassemble())
		}
	}
	run := func(c []Instr) Result {
		res, err := NewVM().Run(&Program{Code: c}, &Env{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	if got, want := run(fused), run(code); got != want {
		t.Fatalf("fusion changed behaviour: %+v vs %+v", got, want)
	}
}

// TestFuseRemapsJumpTargets pins address remapping: a jump over a fused pair
// must land on the same instruction after compaction.
func TestFuseRemapsJumpTargets(t *testing.T) {
	// Source-level: a loop whose body contains a threshold test. The back
	// edge and the loop exit both jump across fused pairs.
	src := `
int n = 0;
for (int i = 0; i < 10; i++) {
  if (i > 4) { n += 2; } else { n += 1; }
}
return n;`
	f := MustCompile(src, nil)
	env := f.NewEnv(0)
	res, err := f.Run(nil, env)
	if err != nil {
		t.Fatalf("fused loop failed: %v\n%s", err, f.Program().Disassemble())
	}
	// i = 0..9: five iterations add 1, five add 2.
	if res.Int != 15 {
		t.Fatalf("fused loop returned %d, want 15\n%s", res.Int, f.Program().Disassemble())
	}
	// The loop condition and the body test must both have fused.
	fusedCount := 0
	for _, in := range f.Program().Code {
		switch in.Op {
		case OpJCmpIZ, OpJCmpINZ, OpJCmpFZ, OpJCmpFNZ:
			fusedCount++
		}
	}
	if fusedCount < 2 {
		t.Fatalf("expected both loop tests fused, got %d:\n%s", fusedCount, f.Program().Disassemble())
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
