package ecode

import (
	"errors"
	"strings"
	"testing"
)

// testSpec mirrors the symbols d-mon exposes: the three metric constants the
// paper's Figure 3 uses, plus scalar globals for the stream-policy tests.
func testSpec() *EnvSpec {
	return &EnvSpec{
		Consts: map[string]int64{
			"LOADAVG":    0,
			"DISKUSAGE":  1,
			"FREEMEM":    2,
			"CACHE_MISS": 3,
		},
		IntGlobals:   []string{"nclients"},
		FloatGlobals: []string{"cpu_load", "net_bw"},
	}
}

// figure3Env builds a 4-record input matching the constants above.
func figure3Env(f *Filter, loadavg, diskusage, freemem, cacheMiss, cacheLast float64) *Env {
	env := f.NewEnv(8)
	env.Input = []Record{
		{ID: 0, Value: loadavg, LastSent: loadavg},
		{ID: 1, Value: diskusage, LastSent: diskusage},
		{ID: 2, Value: freemem, LastSent: freemem},
		{ID: 3, Value: cacheMiss, LastSent: cacheLast},
	}
	return env
}

func TestPaperFigure3FilterAllConditionsTrue(t *testing.T) {
	f, err := Compile(paperFigure3, testSpec())
	if err != nil {
		t.Fatalf("the paper's own filter must compile: %v", err)
	}
	// loadavg > 2, diskusage > 10000 with freemem < 50e6, cache misses rising.
	env := figure3Env(f, 3.0, 20000, 40e6, 9000, 8000)
	if _, err := f.Run(nil, env); err != nil {
		t.Fatal(err)
	}
	if env.OutCount() != 4 {
		t.Fatalf("OutCount = %d, want 4", env.OutCount())
	}
	wantIDs := []int64{0, 1, 2, 3} // LOADAVG, DISKUSAGE, FREEMEM, CACHE_MISS
	for i, want := range wantIDs {
		if env.Output[i].ID != want {
			t.Errorf("output[%d].ID = %d, want %d", i, env.Output[i].ID, want)
		}
	}
	if env.Output[0].Value != 3.0 {
		t.Errorf("output[0].Value = %g", env.Output[0].Value)
	}
}

func TestPaperFigure3FilterAllConditionsFalse(t *testing.T) {
	f := MustCompile(paperFigure3, testSpec())
	// loadavg low, disk quiet, memory plentiful, cache misses falling.
	env := figure3Env(f, 0.5, 100, 200e6, 7000, 8000)
	if _, err := f.Run(nil, env); err != nil {
		t.Fatal(err)
	}
	if env.OutCount() != 0 {
		t.Fatalf("OutCount = %d, want 0 (everything filtered)", env.OutCount())
	}
}

func TestPaperFigure3FilterPartial(t *testing.T) {
	f := MustCompile(paperFigure3, testSpec())
	// Only the disk+memory clause fires: disk busy AND memory low.
	env := figure3Env(f, 1.0, 50000, 10e6, 5, 10)
	if _, err := f.Run(nil, env); err != nil {
		t.Fatal(err)
	}
	if env.OutCount() != 2 {
		t.Fatalf("OutCount = %d, want 2", env.OutCount())
	}
	if env.Output[0].ID != 1 || env.Output[1].ID != 2 {
		t.Fatalf("outputs = %d,%d, want DISKUSAGE,FREEMEM", env.Output[0].ID, env.Output[1].ID)
	}
	// The conjunction must not fire when only one side holds.
	env2 := figure3Env(f, 1.0, 50000, 90e6, 5, 10)
	if _, err := f.Run(nil, env2); err != nil {
		t.Fatal(err)
	}
	if env2.OutCount() != 0 {
		t.Fatalf("disk busy but memory fine: OutCount = %d, want 0", env2.OutCount())
	}
}

func TestPaperFigure3InterpreterAgreesWithVM(t *testing.T) {
	f := MustCompile(paperFigure3, testSpec())
	envVM := figure3Env(f, 3.0, 20000, 40e6, 9000, 8000)
	envIn := figure3Env(f, 3.0, 20000, 40e6, 9000, 8000)
	if _, err := f.Run(nil, envVM); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle(f, envIn); err != nil {
		t.Fatal(err)
	}
	if envVM.OutCount() != envIn.OutCount() {
		t.Fatalf("OutCount: VM %d vs interp %d", envVM.OutCount(), envIn.OutCount())
	}
	for i := 0; i < envVM.OutCount(); i++ {
		if envVM.Output[i] != envIn.Output[i] {
			t.Errorf("output[%d]: VM %+v vs interp %+v", i, envVM.Output[i], envIn.Output[i])
		}
	}
}

func TestRecordFieldMutation(t *testing.T) {
	src := `
output[0] = input[0];
output[0].value = output[0].value * 0.5;
output[0].id = 42;
output[0].timestamp = 100.25;
`
	f := MustCompile(src, testSpec())
	env := f.NewEnv(2)
	env.Input = []Record{{ID: 7, Value: 10, LastSent: 8, Timestamp: 99}}
	if _, err := f.Run(nil, env); err != nil {
		t.Fatal(err)
	}
	out := env.Output[0]
	if out.Value != 5 || out.ID != 42 || out.Timestamp != 100.25 || out.LastSent != 8 {
		t.Fatalf("output[0] = %+v", out)
	}
}

func TestRecordCompoundFieldAssign(t *testing.T) {
	src := `
output[0] = input[0];
output[0].value += 2.5;
output[0].value *= 2;
`
	f := MustCompile(src, testSpec())
	env := f.NewEnv(1)
	env.Input = []Record{{Value: 1.5}}
	if _, err := f.Run(nil, env); err != nil {
		t.Fatal(err)
	}
	if env.Output[0].Value != 8 {
		t.Fatalf("value = %g, want (1.5+2.5)*2 = 8", env.Output[0].Value)
	}
}

func TestNInputBuiltin(t *testing.T) {
	src := `
int n = 0;
for (int i = 0; i < ninput; i++) {
  output[n] = input[i];
  n = n + 1;
}
return n;`
	f := MustCompile(src, testSpec())
	env := f.NewEnv(10)
	env.Input = make([]Record, 6)
	res, err := f.Run(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Int != 6 || env.OutCount() != 6 {
		t.Fatalf("n=%d OutCount=%d, want 6", res.Int, env.OutCount())
	}
}

func TestNOutputBuiltin(t *testing.T) {
	f := MustCompile("return noutput;", testSpec())
	env := f.NewEnv(17)
	res, err := f.Run(nil, env)
	if err != nil || res.Int != 17 {
		t.Fatalf("noutput = %+v err=%v", res, err)
	}
}

func TestScalarGlobals(t *testing.T) {
	src := `
if (cpu_load > 0.8 && net_bw < 10e6) {
  nclients = nclients + 1;
  return 1;
}
return 0;`
	f := MustCompile(src, testSpec())
	env := f.NewEnv(0)
	env.Floats[0] = 0.9 // cpu_load
	env.Floats[1] = 5e6 // net_bw
	env.Ints[0] = 3     // nclients
	res, err := f.Run(nil, env)
	if err != nil || res.Int != 1 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if env.Ints[0] != 4 {
		t.Fatalf("nclients = %d, want 4", env.Ints[0])
	}
	// Below thresholds: no mutation.
	env.Floats[0] = 0.1
	res, err = f.Run(nil, env)
	if err != nil || res.Int != 0 || env.Ints[0] != 4 {
		t.Fatalf("res=%+v nclients=%d err=%v", res, env.Ints[0], err)
	}
}

func TestEnvResetClearsOutput(t *testing.T) {
	f := MustCompile("output[2] = input[0];", testSpec())
	env := f.NewEnv(4)
	env.Input = []Record{{Value: 1}}
	if _, err := f.Run(nil, env); err != nil {
		t.Fatal(err)
	}
	if env.OutCount() != 3 {
		t.Fatalf("OutCount = %d, want 3 (highest index + 1)", env.OutCount())
	}
	env.Reset()
	if env.OutCount() != 0 || env.Output[2].Value != 0 {
		t.Fatalf("Reset left state: count=%d out[2]=%+v", env.OutCount(), env.Output[2])
	}
}

func TestInputIndexOutOfRange(t *testing.T) {
	f := MustCompile("output[0] = input[10];", testSpec())
	env := f.NewEnv(1)
	env.Input = make([]Record, 2)
	if _, err := f.Run(nil, env); !errors.Is(err, ErrBounds) {
		t.Fatalf("VM err = %v, want ErrBounds", err)
	}
	if _, err := oracle(f, env); !errors.Is(err, ErrBounds) {
		t.Fatalf("interp err = %v, want ErrBounds", err)
	}
}

func TestOutputIndexOutOfRange(t *testing.T) {
	f := MustCompile("output[5] = input[0];", testSpec())
	env := f.NewEnv(2)
	env.Input = make([]Record, 1)
	if _, err := f.Run(nil, env); !errors.Is(err, ErrBounds) {
		t.Fatalf("err = %v, want ErrBounds", err)
	}
}

func TestNegativeIndexRejected(t *testing.T) {
	f := MustCompile("int i = 0 - 1; output[0] = input[i];", testSpec())
	env := f.NewEnv(1)
	env.Input = make([]Record, 3)
	if _, err := f.Run(nil, env); !errors.Is(err, ErrBounds) {
		t.Fatalf("err = %v, want ErrBounds", err)
	}
}

// --- compile-time error coverage ---

func compileErr(t *testing.T, src, wantSubstr string) {
	t.Helper()
	_, err := Compile(src, testSpec())
	if err == nil {
		t.Fatalf("Compile(%q) succeeded, want error containing %q", src, wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("Compile(%q) error = %v, want substring %q", src, err, wantSubstr)
	}
}

func TestCheckerErrors(t *testing.T) {
	compileErr(t, "return zzz;", "undefined symbol")
	compileErr(t, "int x = 1; int x = 2;", "redeclared")
	compileErr(t, "break;", "break outside a loop")
	compileErr(t, "continue;", "continue outside a loop")
	compileErr(t, "return input[0];", "cannot return")
	compileErr(t, "return input;", "must be indexed")
	compileErr(t, "int x; return x[0];", "is not an array")
	compileErr(t, "return input[1.5].value;", "array index must be an integer")
	compileErr(t, "return input[0].bogus;", "unknown record field")
	compileErr(t, "return input[0] + input[1];", "cannot be applied to records")
	compileErr(t, "return 1.5 % 2.0;", "requires integer operands")
	compileErr(t, "return 1.5 & 1.0;", "requires integer operands")
	compileErr(t, "return ~1.5;", "requires an integer")
	compileErr(t, "5 = 3;", "not assignable")
	compileErr(t, "LOADAVG = 2;", "not assignable")
	compileErr(t, "output[0] += input[0];", "records only support plain assignment")
	compileErr(t, "input[0]++;", "requires a scalar variable")
	compileErr(t, "double d; d %= 2;", "requires integer operands")
	compileErr(t, "if (input[0]) { }", "condition must be scalar")
	compileErr(t, "return input[0] ? 1 : 2;", "condition must be scalar")
	compileErr(t, "return 1 ? input[0] : input[1];", "branches must be scalar")
	compileErr(t, "output[0] = 5;", "cannot assign")
}

func TestParserErrors(t *testing.T) {
	compileErr(t, "int ;", "expected identifier")
	compileErr(t, "if (1 { }", "expected ')'")
	compileErr(t, "for (int i = 0 i < 3; i++) {}", "expected ';'")
	compileErr(t, "return 1 +;", "expected expression")
	compileErr(t, "{ int x = 1;", "unterminated block")
	compileErr(t, "(1 + 2) [0];", "only the input/output arrays can be indexed")
}

// TestCompileRejectsOversizeSource feeds Compile the two filter bombs a
// control-channel peer could send. Two megabytes of nested parentheses drive
// the parser's expression recursion; a two-megabyte operator chain parses
// iteratively into a left-deep tree that drives the checker's. Without the
// source cap either one overflows the goroutine stack, a fatal error that
// takes the process down.
func TestCompileRejectsOversizeSource(t *testing.T) {
	const n = 1_000_000
	for name, src := range map[string]string{
		"nesting": "return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";",
		"chain":   "int a = 1; return a" + strings.Repeat("+a", n) + ";",
	} {
		if _, err := Compile(src, nil); err == nil || !strings.Contains(err.Error(), "limit") || !errors.Is(err, ErrSourceTooLarge) {
			t.Errorf("%s: %d bytes of source gave err %v, want the size limit", name, len(src), err)
		}
	}
}

// TestCompileAcceptsSourceUpToTheCap pins the other side of the cap: the
// deepest parenthesis nesting, the longest operator chain and the deepest
// unary stack that fit in maxSourceBytes compile and run to the right answer.
func TestCompileAcceptsSourceUpToTheCap(t *testing.T) {
	parens := (maxSourceBytes - len("return 1;")) / 2
	chain := (maxSourceBytes - len("int a = 1; return a;")) / 2
	nots := (maxSourceBytes - len("return 1;")) &^ 1 // an even count: !!1 is 1
	for _, c := range []struct {
		name string
		src  string
		want int64
	}{
		{"nesting", "return " + strings.Repeat("(", parens) + "1" + strings.Repeat(")", parens) + ";", 1},
		{"chain", "int a = 1; return a" + strings.Repeat("+a", chain) + ";", int64(chain) + 1},
		{"unary", "return " + strings.Repeat("!", nots) + "1;", 1},
	} {
		if len(c.src) > maxSourceBytes {
			t.Fatalf("%s: %d bytes, over the cap", c.name, len(c.src))
		}
		f, err := Compile(c.src, nil)
		if err != nil {
			t.Errorf("%s (%d bytes): %v", c.name, len(c.src), err)
			continue
		}
		if res, err := f.Run(nil, f.NewEnv(0)); err != nil || res.Int != c.want {
			t.Errorf("%s: got %+v, %v; want %d", c.name, res, err, c.want)
		}
	}
}

func TestEnvSpecValidation(t *testing.T) {
	// A symbol may not shadow a builtin.
	_, err := Compile("return 1;", &EnvSpec{IntGlobals: []string{"input"}})
	if err == nil || !strings.Contains(err.Error(), "shadows a builtin") {
		t.Fatalf("err = %v", err)
	}
	// Duplicate across classes.
	_, err = Compile("return 1;", &EnvSpec{
		Consts:     map[string]int64{"X": 1},
		IntGlobals: []string{"X"},
	})
	if err == nil || !strings.Contains(err.Error(), "declared as both") {
		t.Fatalf("err = %v", err)
	}
	// Empty name.
	_, err = Compile("return 1;", &EnvSpec{FloatGlobals: []string{""}})
	if err == nil || !strings.Contains(err.Error(), "empty symbol name") {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalMayNotShadowEnvSymbolAtTopLevel(t *testing.T) {
	// Declaring a local named like a const in an inner scope is fine...
	if _, err := Compile("{ int LOADAVG = 1; }", testSpec()); err != nil {
		t.Fatalf("inner shadowing rejected: %v", err)
	}
}

func TestSourceRoundTrip(t *testing.T) {
	f := MustCompile(paperFigure3, testSpec())
	if f.Source() != paperFigure3 {
		t.Fatal("Source() does not return the original text")
	}
	// Recompiling the redistributed source must work (control-channel path).
	if _, err := Compile(f.Source(), testSpec()); err != nil {
		t.Fatalf("recompiling distributed source: %v", err)
	}
}

func TestMustCompilePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	MustCompile("return $$$;", nil)
}

func TestMultiDeclaration(t *testing.T) {
	src := "int a = 1, b = 2, c; c = a + b; return c;"
	if got := runInt(t, src); got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
}

func TestTopLevelWithoutBraces(t *testing.T) {
	// Filters can be written without the outer brace pair.
	f := MustCompile("output[0] = input[0];", testSpec())
	env := f.NewEnv(1)
	env.Input = []Record{{Value: 7}}
	if _, err := f.Run(nil, env); err != nil {
		t.Fatal(err)
	}
	if env.Output[0].Value != 7 {
		t.Fatal("bare filter did not copy record")
	}
}

func TestLeadingBlockThenMoreCode(t *testing.T) {
	// A leading compound statement followed by more statements must not be
	// mistaken for a whole-program brace wrapper.
	src := "{ int x = 1; } return 5;"
	if got := runInt(t, src); got != 5 {
		t.Fatalf("got %d, want 5", got)
	}
}
