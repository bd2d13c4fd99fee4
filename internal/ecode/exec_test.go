package ecode

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// runInt compiles src with no env symbols, runs it on both the VM and the
// interpreter, checks they agree, and returns the integer result.
func runInt(t *testing.T, src string) int64 {
	t.Helper()
	f, err := Compile(src, nil)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	env := f.NewEnv(0)
	res, err := f.Run(nil, env)
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	env2 := f.NewEnv(0)
	res2, err := oracle(f, env2)
	if err != nil {
		t.Fatalf("interpret %q: %v", src, err)
	}
	if res != res2 {
		t.Fatalf("VM and interpreter disagree on %q: %+v vs %+v", src, res, res2)
	}
	if res.Type != TypeInt {
		t.Fatalf("%q returned %v, want int", src, res.Type)
	}
	return res.Int
}

func runFloat(t *testing.T, src string) float64 {
	t.Helper()
	f, err := Compile(src, nil)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	res, err := f.Run(nil, f.NewEnv(0))
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	res2, err := oracle(f, f.NewEnv(0))
	if err != nil {
		t.Fatalf("interpret %q: %v", src, err)
	}
	sameF := res.F == res2.F || (math.IsNaN(res.F) && math.IsNaN(res2.F))
	if res.Type != res2.Type || res.Int != res2.Int || !sameF {
		t.Fatalf("VM and interpreter disagree on %q: %+v vs %+v", src, res, res2)
	}
	if res.Type != TypeFloat {
		t.Fatalf("%q returned %v, want double", src, res.Type)
	}
	return res.F
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"return 1 + 2 * 3;", 7},
		{"return (1 + 2) * 3;", 9},
		{"return 10 / 3;", 3},
		{"return 10 % 3;", 1},
		{"return -5 + 2;", -3},
		{"return 7 - 10;", -3},
		{"return 2 << 4;", 32},
		{"return 256 >> 3;", 32},
		{"return 12 & 10;", 8},
		{"return 12 | 10;", 14},
		{"return 12 ^ 10;", 6},
		{"return ~0;", -1},
		{"return !0;", 1},
		{"return !42;", 0},
		{"return 0x1F;", 31},
	}
	for _, c := range cases {
		if got := runInt(t, c.src); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"return 1 < 2;", 1},
		{"return 2 < 1;", 0},
		{"return 2 <= 2;", 1},
		{"return 3 > 2;", 1},
		{"return 3 >= 4;", 0},
		{"return 5 == 5;", 1},
		{"return 5 != 5;", 0},
		{"return 1 && 2;", 1},
		{"return 1 && 0;", 0},
		{"return 0 || 0;", 0},
		{"return 0 || 3;", 1},
		{"return 1.5 > 1;", 1},    // mixed int/double comparison
		{"return 1 == 1.0;", 1},   // int converts to double
		{"return 0.0 || 0.5;", 1}, // double truth values
		{"return 2 > 1 && 3 > 2;", 1},
	}
	for _, c := range cases {
		if got := runInt(t, c.src); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestShortCircuitSkipsSideEffects(t *testing.T) {
	// The right side of && must not run when the left is false.
	src := `
int x = 0;
int dummy = (0 && (x = 5)) + (1 || (x = 7));
return x;`
	if got := runInt(t, src); got != 0 {
		t.Fatalf("short-circuit leaked side effects: x = %d", got)
	}
}

func TestFloatArithmetic(t *testing.T) {
	if got := runFloat(t, "return 1.5 * 4.0;"); got != 6.0 {
		t.Errorf("1.5*4.0 = %g", got)
	}
	if got := runFloat(t, "return 50e6 / 2;"); got != 25e6 {
		t.Errorf("50e6/2 = %g", got)
	}
	if got := runFloat(t, "double x = 7; return x / 2;"); got != 3.5 {
		t.Errorf("7/2 as double = %g", got)
	}
	if got := runFloat(t, "return -2.5;"); got != -2.5 {
		t.Errorf("-2.5 = %g", got)
	}
	got := runFloat(t, "return 1.0 / 0.0;")
	if !math.IsInf(got, 1) {
		t.Errorf("1.0/0.0 = %g, want +Inf", got)
	}
}

func TestIntFloatConversions(t *testing.T) {
	if got := runInt(t, "int x = 2.9; return x;"); got != 2 {
		t.Errorf("int x = 2.9 truncated to %d, want 2", got)
	}
	if got := runFloat(t, "double x = 3; return x;"); got != 3.0 {
		t.Errorf("double x = 3 → %g", got)
	}
	if got := runInt(t, "return 7 / 2;"); got != 3 {
		t.Errorf("integer division 7/2 = %d", got)
	}
	if got := runFloat(t, "return 7 / 2.0;"); got != 3.5 {
		t.Errorf("mixed division 7/2.0 = %g", got)
	}
}

func TestVariablesAndScopes(t *testing.T) {
	src := `
int x = 1;
{
  int y = 10;
  x = x + y;
}
int z = 100;
return x + z;`
	if got := runInt(t, src); got != 111 {
		t.Fatalf("got %d, want 111", got)
	}
}

func TestShadowingInnerScope(t *testing.T) {
	src := `
int x = 1;
{
  int x = 50;
  x = x + 1;
}
return x;`
	if got := runInt(t, src); got != 1 {
		t.Fatalf("outer x = %d after shadowed inner assignment, want 1", got)
	}
}

func TestForLoop(t *testing.T) {
	src := `
int sum = 0;
for (int i = 1; i <= 10; i = i + 1) {
  sum = sum + i;
}
return sum;`
	if got := runInt(t, src); got != 55 {
		t.Fatalf("sum 1..10 = %d", got)
	}
}

func TestForLoopIncDecAndCompound(t *testing.T) {
	src := `
int sum = 0;
for (int i = 0; i < 5; i++) sum += i;
return sum;`
	if got := runInt(t, src); got != 10 {
		t.Fatalf("got %d, want 10", got)
	}
}

func TestWhileLoop(t *testing.T) {
	src := `
int n = 1;
int count = 0;
while (n < 100) {
  n = n * 2;
  count++;
}
return count;`
	if got := runInt(t, src); got != 7 {
		t.Fatalf("doublings to exceed 100 = %d, want 7", got)
	}
}

func TestBreakAndContinue(t *testing.T) {
	src := `
int sum = 0;
for (int i = 0; i < 100; i++) {
  if (i % 2 == 0) continue;
  if (i > 10) break;
  sum += i;
}
return sum;`
	// 1+3+5+7+9 = 25
	if got := runInt(t, src); got != 25 {
		t.Fatalf("got %d, want 25", got)
	}
}

func TestNestedLoopsBreakInner(t *testing.T) {
	src := `
int hits = 0;
for (int i = 0; i < 4; i++) {
  for (int j = 0; j < 10; j++) {
    if (j == 2) break;
    hits++;
  }
}
return hits;`
	if got := runInt(t, src); got != 8 {
		t.Fatalf("got %d, want 8", got)
	}
}

func TestTernary(t *testing.T) {
	if got := runInt(t, "return 5 > 3 ? 10 : 20;"); got != 10 {
		t.Errorf("ternary true = %d", got)
	}
	if got := runInt(t, "return 1 > 3 ? 10 : 20;"); got != 20 {
		t.Errorf("ternary false = %d", got)
	}
	if got := runFloat(t, "return 1 ? 2 : 3.5;"); got != 2.0 {
		t.Errorf("mixed ternary = %g, want 2 as double", got)
	}
	if got := runInt(t, "return 1 ? 2 : 0 ? 3 : 4;"); got != 2 {
		t.Errorf("right-assoc ternary = %d, want 2", got)
	}
}

func TestIncDecSemantics(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"int x = 5; int y = x++; return y * 100 + x;", 506},
		{"int x = 5; int y = ++x; return y * 100 + x;", 606},
		{"int x = 5; int y = x--; return y * 100 + x;", 504},
		{"int x = 5; int y = --x; return y * 100 + x;", 404},
	}
	for _, c := range cases {
		if got := runInt(t, c.src); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestFloatIncDec(t *testing.T) {
	if got := runFloat(t, "double x = 1.5; x++; return x;"); got != 2.5 {
		t.Fatalf("double x++ = %g", got)
	}
}

func TestCompoundAssignments(t *testing.T) {
	src := `
int x = 100;
x += 10;
x -= 5;
x *= 2;
x /= 3;
x %= 50;
return x;`
	// ((100+10-5)*2)/3 = 70; 70 % 50 = 20
	if got := runInt(t, src); got != 20 {
		t.Fatalf("got %d, want 20", got)
	}
}

func TestAssignmentIsExpression(t *testing.T) {
	if got := runInt(t, "int x; int y = (x = 42); return x + y;"); got != 84 {
		t.Fatalf("got %d, want 84", got)
	}
	if got := runInt(t, "int x; int y; x = y = 7; return x + y;"); got != 14 {
		t.Fatalf("chained assignment = %d, want 14", got)
	}
}

func TestImplicitVoidReturn(t *testing.T) {
	f := MustCompile("int x = 1; x = x + 1;", nil)
	res, err := f.Run(nil, f.NewEnv(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Type != TypeVoid {
		t.Fatalf("result type = %v, want void", res.Type)
	}
	if res.Bool() {
		t.Fatal("void result must be false")
	}
}

func TestBareReturn(t *testing.T) {
	f := MustCompile("return;", nil)
	res, err := f.Run(nil, f.NewEnv(0))
	if err != nil || res.Type != TypeVoid {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestReturnInsideLoop(t *testing.T) {
	src := `
for (int i = 0; ; i++) {
  if (i == 13) return i;
}`
	if got := runInt(t, src); got != 13 {
		t.Fatalf("got %d, want 13", got)
	}
}

func TestDivisionByZeroError(t *testing.T) {
	f := MustCompile("int zero = 0; return 1 / zero;", nil)
	if _, err := f.Run(nil, f.NewEnv(0)); !errors.Is(err, ErrDivZero) {
		t.Fatalf("VM err = %v, want ErrDivZero", err)
	}
	if _, err := oracle(f, f.NewEnv(0)); !errors.Is(err, ErrDivZero) {
		t.Fatalf("interp err = %v, want ErrDivZero", err)
	}
	f2 := MustCompile("int zero = 0; return 1 % zero;", nil)
	if _, err := f2.Run(nil, f2.NewEnv(0)); !errors.Is(err, ErrDivZero) {
		t.Fatalf("mod err = %v", err)
	}
}

func TestInfiniteLoopHitsStepLimit(t *testing.T) {
	f := MustCompile("for (;;) {}", nil)
	if _, err := f.Run(nil, f.NewEnv(0)); !errors.Is(err, ErrSteps) {
		t.Fatalf("VM err = %v, want ErrSteps", err)
	}
	if _, err := oracle(f, f.NewEnv(0)); !errors.Is(err, ErrSteps) {
		t.Fatalf("interp err = %v, want ErrSteps", err)
	}
}

func TestCustomStepLimit(t *testing.T) {
	f := MustCompile("int s = 0; for (int i = 0; i < 1000; i++) s += i; return s;", nil)
	vm := &VM{MaxSteps: 100}
	if _, err := f.Run(vm, f.NewEnv(0)); !errors.Is(err, ErrSteps) {
		t.Fatalf("err = %v, want ErrSteps with tight budget", err)
	}
	vm2 := &VM{MaxSteps: 1 << 16}
	res, err := f.Run(vm2, f.NewEnv(0))
	if err != nil || res.Int != 499500 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// budgetEdge asserts that f needs exactly want steps on env: it runs at a
// budget of want and ends in ErrSteps at want-1.
func budgetEdge(t *testing.T, f *Filter, env func() *Env, want int) {
	t.Helper()
	if _, err := f.Run(&VM{MaxSteps: want}, env()); err != nil {
		t.Fatalf("budget %d: %v, want a clean run\n%s", want, err, f.Source())
	}
	if _, err := f.Run(&VM{MaxSteps: want - 1}, env()); !errors.Is(err, ErrSteps) {
		t.Fatalf("budget %d: err = %v, want ErrSteps\n%s", want-1, err, f.Source())
	}
}

// TestStepCharges pins the cost model: a statement charges 1 plus the node
// count of the expressions it evaluates, a loop iteration 1 plus the node
// count of its condition and post, and a block nothing.
func TestStepCharges(t *testing.T) {
	f := MustCompile(paperFigure3, testSpec())
	// Every condition holds: the declaration (2), three ifs (7, 13, 8) and
	// eight assignments of 6.
	budgetEdge(t, f, func() *Env { return figure3Env(f, 3.0, 20000, 40e6, 9000, 8000) }, 78)
	// None holds: the declaration and the three conditions.
	budgetEdge(t, f, func() *Env { return figure3Env(f, 0.5, 100, 200e6, 7000, 8000) }, 30)

	// 10 an iteration: the loop's 1 + 3 (i < 100), the post's 2 (i++) and
	// the body's 1 + 3 (s += i). Around it: two declarations of 2, the
	// failing condition's 4 and the return's 2.
	loop := MustCompile("int s = 0; for (int i = 0; i < 100; i++) s += i; return s;", nil)
	budgetEdge(t, loop, func() *Env { return loop.NewEnv(0) }, 10*100+10)

	// Blocks cost nothing, however deeply nested: 2 (return 1).
	nested := MustCompile(strings.Repeat("{", 100)+"return 1;"+strings.Repeat("}", 100), nil)
	budgetEdge(t, nested, func() *Env { return nested.NewEnv(0) }, 2)
}

// TestStepBudgetBoundsWork holds the budget to the work a filter does, not
// to its statement count: a loop whose body is one expression of about
// 20 000 nodes stops after DefaultMaxSteps / 20 000 iterations. A budget of
// one step per statement would let it run about 10^4 times as long.
func TestStepBudgetBoundsWork(t *testing.T) {
	const terms = 10000
	src := "for (;;) { nclients = nclients + 1; cpu_load = cpu_load" + strings.Repeat(" + 1.0", terms) + "; }"
	if len(src) > maxSourceBytes {
		t.Fatalf("source is %d bytes, over the cap", len(src))
	}
	f := MustCompile(src, testSpec())
	env := f.NewEnv(0)
	if _, err := f.Run(nil, env); !errors.Is(err, ErrSteps) {
		t.Fatalf("err = %v, want ErrSteps", err)
	}
	// The body's nodes: nclients = nclients + 1 is 5; the second
	// assignment is the target, cpu_load, and terms of (+, 1.0).
	bodyNodes := 5 + 2 + 2*terms
	if n, limit := env.Ints[0], int64(DefaultMaxSteps/bodyNodes+1); n > limit {
		t.Fatalf("the loop ran %d iterations on the default budget, want at most %d", n, limit)
	}
}

func TestVMIsReusable(t *testing.T) {
	f := MustCompile("int x = 3; return x * x;", nil)
	vm := NewVM()
	for i := 0; i < 5; i++ {
		res, err := f.Run(vm, f.NewEnv(0))
		if err != nil || res.Int != 9 {
			t.Fatalf("iteration %d: res=%+v err=%v", i, res, err)
		}
	}
}

// MustCompile is Compile that panics on error.
func MustCompile(source string, spec *EnvSpec) *Filter {
	f, err := Compile(source, spec)
	if err != nil {
		panic(err)
	}
	return f
}

// Bool interprets the result as a C truth value; void is false.
func (r Result) Bool() bool {
	switch r.Type {
	case TypeInt:
		return r.Int != 0
	case TypeFloat:
		return r.F != 0
	default:
		return false
	}
}
