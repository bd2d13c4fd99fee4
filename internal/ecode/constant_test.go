package ecode

import "testing"

// Programs whose operands are literals and metric constants, which compiled
// filters evaluate at run time like any other operand.

func TestFoldPreservesDivisionByZero(t *testing.T) {
	// Literal 1/0 fails at run time, not at compile time (C semantics: UB,
	// but our documented behaviour is the runtime error).
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
	// 1.0/0.0 is +Inf, not an error.
	got := runFloat(t, "return 1.0 / 0.0;")
	if got <= 0 {
		t.Fatalf("1.0/0.0 = %g", got)
	}
}

func TestFoldMetricConstantConditions(t *testing.T) {
	// Metric constants load as ints: LOADAVG == LOADAVG is true.
	f := MustCompile("if (LOADAVG == LOADAVG) { return 5; } return 6;", testSpec())
	res, err := f.Run(nil, f.NewEnv(0))
	if err != nil || res.Int != 5 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestFoldedProgramsStillAgreeWithInterpreter(t *testing.T) {
	// Programs of literal operands, constant conditions and a constant loop
	// bound: the VM and the interpreter compute the same answer.
	srcs := []string{
		"return (2 + 3) * (10 - 4) / 2;",
		"int x = 5; if (1 && 2 > 1) { x = x * (1 + 1); } return x;",
		"int s = 0; for (int i = 0; i < 3 + 2; i++) { s += i * (2 - 1); } return s;",
		"return 0 ? 100 : (50e6 < 60e6 ? 7 : 8);",
	}
	for _, src := range srcs {
		runInt(t, src) // runInt asserts VM/interpreter agreement
	}
	if runInt(t, "return (2 + 3) * (10 - 4) / 2;") != 15 {
		t.Fatal("constant arithmetic wrong")
	}
}
