package ecode

import (
	"math"
	"testing"
)

// These tests route every operator through *variables*, so each operand is
// a value computed at run time by both the VM's and the interpreter's full
// operator implementations (runInt/runFloat assert they agree).

func TestVariableIntOperators(t *testing.T) {
	prelude := "int a = 13; int b = 5; int z = 0 + a - a;\n" // z = 0, computed at run time
	cases := []struct {
		expr string
		want int64
	}{
		{"a + b", 18},
		{"a - b", 8},
		{"a * b", 65},
		{"a / b", 2},
		{"a % b", 3},
		{"a & b", 5},
		{"a | b", 13},
		{"a ^ b", 8},
		{"a << b", 416},
		{"a >> 2", 3},
		{"-a", -13},
		{"~a", -14},
		{"!a", 0},
		{"!z", 1},
		{"a == b", 0},
		{"a != b", 1},
		{"a < b", 0},
		{"a <= b", 0},
		{"a > b", 1},
		{"a >= b", 1},
		{"a == 13", 1},
		{"a && b", 1},
		{"a && z", 0},
		{"z || b", 1},
		{"z || z", 0},
		{"a > b ? a : b", 13},
		{"a < b ? a : b", 5},
	}
	for _, c := range cases {
		if got := runInt(t, prelude+"return "+c.expr+";"); got != c.want {
			t.Errorf("%q = %d, want %d", c.expr, got, c.want)
		}
	}
}

func TestVariableFloatOperators(t *testing.T) {
	prelude := "double x = 7.5; double y = 2.5;\n"
	fcases := []struct {
		expr string
		want float64
	}{
		{"x + y", 10},
		{"x - y", 5},
		{"x * y", 18.75},
		{"x / y", 3},
		{"-x", -7.5},
		{"x > y ? x : y", 7.5},
	}
	for _, c := range fcases {
		if got := runFloat(t, prelude+"return "+c.expr+";"); got != c.want {
			t.Errorf("%q = %g, want %g", c.expr, got, c.want)
		}
	}
	icases := []struct {
		expr string
		want int64
	}{
		{"x == y", 0},
		{"x != y", 1},
		{"x < y", 0},
		{"x <= y", 0},
		{"x > y", 1},
		{"x >= y", 1},
		{"!x", 0},
		{"x && y", 1},
		{"x || y", 1},
	}
	for _, c := range icases {
		if got := runInt(t, prelude+"return "+c.expr+";"); got != c.want {
			t.Errorf("%q = %d, want %d", c.expr, got, c.want)
		}
	}
}

func TestVariableCompoundAssignBothTypes(t *testing.T) {
	if got := runFloat(t, "double x = 10; double d = 3; x += d; x -= 1; x *= d; x /= 2; return x;"); got != 18 {
		t.Fatalf("float compound chain = %g, want (10+3-1)*3/2 = 18", got)
	}
	if got := runInt(t, "int x = 10; int d = 3; x += d; x -= 1; x *= d; x /= 2; x %= 7; return x;"); got != 4 {
		t.Fatalf("int compound chain = %d, want ((10+3-1)*3/2)%%7 = 4", got)
	}
}

func TestRecordFieldCompoundBothTypes(t *testing.T) {
	src := `
output[0] = input[0];
output[0].value += 1.5;
output[0].value -= 0.5;
output[0].value *= 4.0;
output[0].value /= 2.0;
output[0].last_value_sent += 1.0;
output[0].timestamp += 10.0;
output[0].id += 2;
`
	f := MustCompile(src, nil)
	mk := func() *Env {
		env := f.NewEnv(1)
		env.Input = []Record{{ID: 5, Value: 1, LastSent: 2, Timestamp: 100}}
		return env
	}
	e1, e2 := mk(), mk()
	if _, err := f.Run(nil, e1); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle(f, e2); err != nil {
		t.Fatal(err)
	}
	want := Record{ID: 7, Value: 4, LastSent: 3, Timestamp: 110}
	if e1.Output[0] != want {
		t.Fatalf("VM output = %+v, want %+v", e1.Output[0], want)
	}
	if e2.Output[0] != want {
		t.Fatalf("interp output = %+v, want %+v", e2.Output[0], want)
	}
}

func TestRecordFieldReadsAllFields(t *testing.T) {
	src := "return input[0].value + input[0].last_value_sent + input[0].timestamp + input[0].id;"
	f := MustCompile(src, nil)
	mk := func() *Env {
		env := f.NewEnv(0)
		env.Input = []Record{{ID: 4, Value: 1, LastSent: 2, Timestamp: 8}}
		return env
	}
	r1, err := f.Run(nil, mk())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := oracle(f, mk())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || r1.F != 15 {
		t.Fatalf("vm=%+v interp=%+v, want 15", r1, r2)
	}
}

func TestGlobalVariableStoresBothTypes(t *testing.T) {
	spec := &EnvSpec{IntGlobals: []string{"gi"}, FloatGlobals: []string{"gf"}}
	src := "gi = gi + 2; gi++; gf = gf * 2.0; gf += 0.5; return gi;"
	f := MustCompile(src, spec)
	mk := func() *Env {
		env := f.NewEnv(0)
		env.Ints[0] = 10
		env.Floats[0] = 1.5
		return env
	}
	e1, e2 := mk(), mk()
	r1, err := f.Run(nil, e1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := oracle(f, e2)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || r1.Int != 13 {
		t.Fatalf("results: vm=%+v interp=%+v", r1, r2)
	}
	if e1.Ints[0] != 13 || e1.Floats[0] != 3.5 || e2.Ints[0] != 13 || e2.Floats[0] != 3.5 {
		t.Fatalf("globals: vm=(%d,%g) interp=(%d,%g)", e1.Ints[0], e1.Floats[0], e2.Ints[0], e2.Floats[0])
	}
}

func TestResultBoolAllKinds(t *testing.T) {
	cases := []struct {
		r    Result
		want bool
	}{
		{Result{Type: TypeInt, Int: 1}, true},
		{Result{Type: TypeInt, Int: 0}, false},
		{Result{Type: TypeFloat, F: 0.5}, true},
		{Result{Type: TypeFloat, F: 0}, false},
		{Result{Type: TypeVoid}, false},
	}
	for _, c := range cases {
		if c.r.Bool() != c.want {
			t.Errorf("Bool(%+v) = %v", c.r, c.r.Bool())
		}
	}
}

func TestFilterSpecAccessor(t *testing.T) {
	spec := testSpec()
	f := MustCompile("return LOADAVG;", spec)
	if f.Spec() != spec {
		t.Fatal("Spec() does not return the compile-time spec")
	}
}

func TestTokenAndTypeStrings(t *testing.T) {
	if Kind(9999).String() == "" {
		t.Fatal("unknown kind has empty name")
	}
	if (Pos{Line: 3, Col: 7}).String() != "3:7" {
		t.Fatal("Pos format")
	}
	for _, typ := range []Type{TypeInt, TypeFloat, TypeRecord, TypeVoid, TypeInvalid} {
		if typ.String() == "" {
			t.Fatalf("type %d has empty name", typ)
		}
	}
}

func TestIntDivisionTruncatesTowardZero(t *testing.T) {
	prelude := "int a = 0 - 7; int b = 2;\n"
	if got := runInt(t, prelude+"return a / b;"); got != -3 {
		t.Fatalf("-7/2 = %d, want -3 (truncation toward zero)", got)
	}
	if got := runInt(t, prelude+"return a % b;"); got != -1 {
		t.Fatalf("-7%%2 = %d, want -1", got)
	}
}

func TestFloatNaNPropagation(t *testing.T) {
	got := runFloat(t, "double z = 0.0; return z / z;")
	if !math.IsNaN(got) {
		t.Fatalf("0/0 = %g, want NaN", got)
	}
}
