package ecode

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestOperatorPrecedenceTable checks E-code against C's precedence rules by
// evaluating expressions whose results differ under wrong associativity or
// precedence.
func TestOperatorPrecedenceTable(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		// Multiplicative over additive.
		{"2 + 3 * 4", 14},
		{"2 * 3 + 4", 10},
		{"20 - 6 / 2", 17},
		{"20 % 7 - 1", 5},
		// Shifts bind looser than additive.
		{"1 << 2 + 1", 8},
		{"16 >> 1 + 1", 4},
		// Relational looser than shifts.
		{"1 << 3 > 7", 1},
		{"4 >> 1 < 3", 1},
		// Equality looser than relational.
		{"1 < 2 == 2 < 3", 1},
		{"1 > 2 == 2 > 3", 1},
		// Bitwise AND < XOR < OR, all looser than equality.
		{"1 & 2 == 2", 1}, // 1 & (2==2) = 1
		{"4 ^ 1 & 1", 5},  // 4 ^ (1&1)
		{"4 | 1 ^ 1", 4},  // 4 | (1^1)
		{"1 | 2 & 2", 3},  // 1 | (2&2)
		// Logical AND over OR.
		{"1 || 0 && 0", 1}, // 1 || (0&&0)
		{"0 && 0 || 1", 1}, // (0&&0) || 1
		// Unary binds tightest.
		{"-2 * 3", -6},
		{"~1 & 3", 2},
		{"!0 + 1", 2},
		// Associativity.
		{"100 - 10 - 5", 85},
		{"64 / 4 / 2", 8},
		{"2 - 3 + 4", 3},
		// Ternary is right-associative and lowest (above assignment).
		{"0 ? 1 : 0 ? 2 : 3", 3},
		{"1 ? 0 ? 4 : 5 : 6", 5},
	}
	for _, c := range cases {
		got := runInt(t, "return "+c.expr+";")
		if got != c.want {
			t.Errorf("%q = %d, want %d", c.expr, got, c.want)
		}
	}
}

func TestDeeplyNestedExpressions(t *testing.T) {
	// 200 levels of parens must not break the recursive-descent parser.
	expr := strings.Repeat("(", 200) + "1" + strings.Repeat(")", 200)
	if got := runInt(t, "return "+expr+";"); got != 1 {
		t.Fatalf("got %d", got)
	}
	// Long chains.
	var sb strings.Builder
	sb.WriteString("return 0")
	for i := 1; i <= 500; i++ {
		fmt.Fprintf(&sb, " + %d", i)
	}
	sb.WriteString(";")
	if got := runInt(t, sb.String()); got != 500*501/2 {
		t.Fatalf("long chain = %d", got)
	}
}

func TestDeeplyNestedStatements(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("int x = 0;\n")
	for i := 0; i < 100; i++ {
		sb.WriteString("if (1) { ")
	}
	sb.WriteString("x = 42;")
	sb.WriteString(strings.Repeat(" }", 100))
	sb.WriteString("\nreturn x;")
	if got := runInt(t, sb.String()); got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestManyLocals(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "int v%d = %d;\n", i, i)
	}
	sb.WriteString("return v0 + v99 + v199;")
	if got := runInt(t, sb.String()); got != 0+99+199 {
		t.Fatalf("got %d", got)
	}
}

func TestTripleNestedLoops(t *testing.T) {
	src := `
int count = 0;
for (int i = 0; i < 5; i++)
  for (int j = 0; j < 5; j++)
    for (int k = 0; k < 5; k++)
      if ((i + j + k) % 2 == 0)
        count++;
return count;`
	// Of the 125 triples, 63 have even sum.
	if got := runInt(t, src); got != 63 {
		t.Fatalf("got %d, want 63", got)
	}
}

func TestCommentsEverywhere(t *testing.T) {
	src := `
// leading comment
int /* inline */ x = /* before value */ 5; // trailing
/* multi
   line */ return x /* weird spot */ * 2;`
	if got := runInt(t, src); got != 10 {
		t.Fatalf("got %d", got)
	}
}

// TestQuickParserNeverPanics throws random byte soup at the full pipeline;
// it must error or succeed, never panic — the robustness a kernel-resident
// compiler needs against hostile control-file writes.
func TestQuickParserNeverPanics(t *testing.T) {
	spec := testSpec()
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Compile(src, spec)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTokenSoupNeverPanics builds random but token-shaped inputs,
// which reach deeper into the parser than raw bytes.
func TestQuickTokenSoupNeverPanics(t *testing.T) {
	tokens := []string{
		"int", "double", "if", "else", "for", "while", "return", "break",
		"continue", "input", "output", "ninput", "x", "LOADAVG",
		"0", "1", "2.5", "50e6",
		"+", "-", "*", "/", "%", "=", "==", "!=", "<", ">", "&&", "||",
		"(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":", "++", "--",
		"value", "last_value_sent",
	}
	rng := rand.New(rand.NewSource(20030623))
	spec := testSpec()
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(30) + 1
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(tokens[rng.Intn(len(tokens))])
			sb.WriteByte(' ')
		}
		src := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			f, err := Compile(src, spec)
			if err != nil {
				return
			}
			// If it compiled, it must also execute without panicking.
			env := f.NewEnv(4)
			env.Input = make([]Record, 4)
			vm := &VM{MaxSteps: 10000}
			_, _ = f.Run(vm, env)
			_, _ = oracle(f, env)
		}()
	}
}

// TestQuickCompiledProgramsAgree extends the parity property to programs
// with floats, conversions and record traffic under random inputs.
func TestQuickCompiledProgramsAgree(t *testing.T) {
	f := func(a, b float64, sel uint8) bool {
		src := fmt.Sprintf(`
double x = %g;
double y = %g;
int path = %d;
if (path %% 3 == 0) { output[0] = input[0]; output[0].value = x + y; }
if (path %% 3 == 1) { output[0] = input[0]; output[0].value = x * y; }
if (path %% 3 == 2) { output[0] = input[0]; output[0].value = x > y ? x : y; }
return path %% 3;`, a, b, sel)
		filter, err := Compile(src, nil)
		if err != nil {
			return false
		}
		mkEnv := func() *Env {
			e := filter.NewEnv(2)
			e.Input = []Record{{Value: 1}}
			return e
		}
		e1, e2 := mkEnv(), mkEnv()
		r1, err1 := filter.Run(nil, e1)
		r2, err2 := oracle(filter, e2)
		if (err1 == nil) != (err2 == nil) || r1 != r2 {
			return false
		}
		v1, v2 := e1.Output[0].Value, e2.Output[0].Value
		return v1 == v2 || (v1 != v1 && v2 != v2) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepLimitIsProportionalToWork(t *testing.T) {
	// A filter doing bounded work far below the limit must succeed even
	// with many records.
	src := `
int i = 0;
for (int m = 0; m < ninput; m++) {
  if (input[m].value > 0) { output[i] = input[m]; i++; }
}
return i;`
	f := MustCompile(src, nil)
	env := f.NewEnv(64)
	env.Input = make([]Record, 64)
	for i := range env.Input {
		env.Input[i] = Record{ID: int64(i), Value: float64(i % 2)}
	}
	res, err := f.Run(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Int != 32 || env.OutCount() != 32 {
		t.Fatalf("res=%d out=%d", res.Int, env.OutCount())
	}
}
