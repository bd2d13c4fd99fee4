package ecode

import (
	"strings"
	"testing"
)

// instrCount compiles src and returns the instruction count.
func instrCount(t *testing.T, src string) int {
	t.Helper()
	f := MustCompile(src, testSpec())
	return len(f.Program().Code)
}

func TestFoldConstantArithmetic(t *testing.T) {
	// `return 2 + 3 * 4;` must compile to exactly consti + reti.
	f := MustCompile("return 2 + 3 * 4;", nil)
	code := f.Program().Code
	// consti, reti, plus the compiler's trailing retvoid.
	if len(code) != 3 || code[0].Op != OpConstI || code[0].I != 14 || code[1].Op != OpRetI {
		t.Fatalf("folded program:\n%s", f.Program().Disassemble())
	}
}

func TestFoldConstantFloatAndConversions(t *testing.T) {
	f := MustCompile("return 50e6 / 2;", nil)
	code := f.Program().Code
	if len(code) != 3 || code[0].Op != OpConstF || code[0].F != 25e6 {
		t.Fatalf("folded program:\n%s", f.Program().Disassemble())
	}
	// Mixed int/double folds through the conversion.
	f2 := MustCompile("return 1 + 0.5;", nil)
	code2 := f2.Program().Code
	if len(code2) != 3 || code2[0].Op != OpConstF || code2[0].F != 1.5 {
		t.Fatalf("mixed fold:\n%s", f2.Program().Disassemble())
	}
}

func TestFoldDeadBranches(t *testing.T) {
	withDead := instrCount(t, `
if (0) {
  output[0] = input[LOADAVG];
  output[1] = input[FREEMEM];
}
return 1;`)
	bare := instrCount(t, "return 1;")
	if withDead != bare {
		t.Fatalf("dead branch not eliminated: %d vs %d instructions", withDead, bare)
	}
	// if(1) keeps only the then-arm.
	taken := MustCompile("if (1) { return 7; } else { return 8; }", nil)
	res, err := taken.Run(nil, taken.NewEnv(0))
	if err != nil || res.Int != 7 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if n := len(taken.Program().Code); n > 4 {
		t.Fatalf("if(1) compiled to %d instructions:\n%s", n, taken.Program().Disassemble())
	}
}

func TestFoldDeadLoops(t *testing.T) {
	dead := instrCount(t, "while (0) { output[0] = input[LOADAVG]; } return 1;")
	bare := instrCount(t, "return 1;")
	if dead != bare {
		t.Fatalf("while(0) not eliminated: %d vs %d", dead, bare)
	}
	forDead := instrCount(t, "for (int i = 0; 0; i++) { output[0] = input[LOADAVG]; } return 1;")
	// The init declaration survives (it is scoped but already slotted).
	if forDead >= instrCount(t, "for (int i = 0; i < 1; i++) { output[0] = input[LOADAVG]; } return 1;") {
		t.Fatalf("for(;0;) body not eliminated: %d instructions", forDead)
	}
}

func TestFoldShortCircuitConstants(t *testing.T) {
	// `0 && anything` folds to 0 without evaluating the right side.
	f := MustCompile("return 0 && input[LOADAVG].value > 2;", testSpec())
	code := f.Program().Code
	if len(code) != 3 || code[0].Op != OpConstI || code[0].I != 0 {
		t.Fatalf("0&&x not folded:\n%s", f.Program().Disassemble())
	}
	f2 := MustCompile("return 1 || input[LOADAVG].value > 2;", testSpec())
	code2 := f2.Program().Code
	if len(code2) != 3 || code2[0].I != 1 {
		t.Fatalf("1||x not folded:\n%s", f2.Program().Disassemble())
	}
}

func TestFoldTernary(t *testing.T) {
	f := MustCompile("return 1 ? 10 : 20;", nil)
	code := f.Program().Code
	if len(code) != 3 || code[0].I != 10 {
		t.Fatalf("const ternary not folded:\n%s", f.Program().Disassemble())
	}
}

func TestFoldPreservesDivisionByZero(t *testing.T) {
	// Constant 1/0 must still fail at run time, not at compile time (C
	// semantics: UB, but our documented behaviour is the runtime error).
	f := MustCompile("return 1 / 0;", nil)
	if _, err := f.Run(nil, f.NewEnv(0)); err == nil {
		t.Fatal("constant division by zero lost its runtime error")
	}
	f2 := MustCompile("return 1 % 0;", nil)
	if _, err := f2.Run(nil, f2.NewEnv(0)); err == nil {
		t.Fatal("constant modulo by zero lost its runtime error")
	}
}

func TestFoldPreservesFloatDivisionSemantics(t *testing.T) {
	// 1.0/0.0 is +Inf and folds safely.
	got := runFloat(t, "return 1.0 / 0.0;")
	if got <= 0 {
		t.Fatalf("1.0/0.0 = %g", got)
	}
}

func TestFoldDropsUselessExpressionStatements(t *testing.T) {
	a := instrCount(t, "1 + 2; 3 * 4; return 1;")
	b := instrCount(t, "return 1;")
	if a != b {
		t.Fatalf("pure expression statements not removed: %d vs %d", a, b)
	}
	// Side-effecting statements must stay.
	f := MustCompile("int x = 0; x++; return x;", nil)
	res, err := f.Run(nil, f.NewEnv(0))
	if err != nil || res.Int != 1 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestFoldMetricConstantConditions(t *testing.T) {
	// Metric constants substitute as ints and participate in folding:
	// LOADAVG == LOADAVG is constant-true.
	f := MustCompile("if (LOADAVG == LOADAVG) { return 5; } return 6;", testSpec())
	res, err := f.Run(nil, f.NewEnv(0))
	if err != nil || res.Int != 5 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	// The comparison and branch must be gone (the unreachable trailing
	// return remains; there is no dead-code-after-return pass).
	for _, in := range f.Program().Code {
		if in.Op == OpEqI || in.Op == OpJumpZ {
			t.Fatalf("constant metric comparison not folded:\n%s", f.Program().Disassemble())
		}
	}
}

func TestFoldedProgramsStillAgreeWithInterpreter(t *testing.T) {
	// The VM runs the folded program, the interpreter the unfolded AST;
	// folding must not change what a program computes.
	srcs := []string{
		"return (2 + 3) * (10 - 4) / 2;",
		"int x = 5; if (1 && 2 > 1) { x = x * (1 + 1); } return x;",
		"int s = 0; for (int i = 0; i < 3 + 2; i++) { s += i * (2 - 1); } return s;",
		"return 0 ? 100 : (50e6 < 60e6 ? 7 : 8);",
	}
	for _, src := range srcs {
		got := runInt(t, src) // runInt asserts VM/interpreter agreement
		_ = got
	}
	if runInt(t, "return (2 + 3) * (10 - 4) / 2;") != 15 {
		t.Fatal("folded arithmetic wrong")
	}
}

func TestFigure3FilterShrinksUnderFolding(t *testing.T) {
	// Sanity: the real filter still behaves identically (covered elsewhere)
	// and the disassembly contains no constant arithmetic over literals.
	f := MustCompile(paperFigure3, testSpec())
	dis := f.Program().Disassemble()
	if strings.Contains(dis, "i2f") {
		// The comparisons against int literals (2, 10000) convert the
		// literal side at compile time now.
		t.Fatalf("unfolded conversion remains:\n%s", dis)
	}
}
