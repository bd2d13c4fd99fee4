package ecode

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// --- VM reuse ---

// TestReusedVMMatchesFreshVM runs the random-program torture corpus twice —
// once on a fresh VM per run, once on one VM reused for every trial, the way
// d-mon reuses the VM it owns across polls — and demands identical results,
// errors and outputs. Every tenth trial the reused VM first runs a filter
// that fails mid-expression with values on its stack. A VM that leaked stack
// or locals state from one run into the next would diverge here.
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
// on a VM the caller owns: once its stack and locals have grown, Run
// allocates nothing.
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
	run() // grow the VM's stack and locals
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("filter run on a reused VM allocates %.1f times per run, want 0", avg)
	}
}

// --- superinstruction fusion ---

// compileUnfused is Compile without the fusion pass — the same parse, check,
// fold and code generation — for the fused-versus-unfused parity checks.
func compileUnfused(src string, spec *EnvSpec) (*Filter, error) {
	stmts, err := parse(src)
	if err != nil {
		return nil, err
	}
	frame, err := check(stmts, spec)
	if err != nil {
		return nil, err
	}
	prog, err := compileProgram(foldStmts(stmts), frame, src)
	if err != nil {
		return nil, err
	}
	if spec == nil {
		spec = &EnvSpec{}
	}
	return &Filter{prog: prog, spec: spec}, nil
}

// fusionAblation compiles src with and without fusion and asserts identical
// behaviour.
func fusionAblation(t *testing.T, src string, spec *EnvSpec) {
	t.Helper()
	fused, err := Compile(src, spec)
	if err != nil {
		t.Fatalf("compile fused: %v\n%s", err, src)
	}
	plain, err := compileUnfused(src, spec)
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
