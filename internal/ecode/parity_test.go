package ecode

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// progGen generates random well-formed E-code programs over a fixed set of
// pre-declared scalar variables and the record arrays, used to check that
// compiled filters and the tree-walking interpreter implement identical
// semantics (the compiled-code fidelity property).
type progGen struct {
	rng *rand.Rand
	sb  strings.Builder
}

func (g *progGen) intExpr(depth int) string {
	if depth <= 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(20)+1) // avoid literal 0 divisors
		case 1:
			return "a"
		case 2:
			return "b"
		default:
			return "i"
		}
	}
	switch g.rng.Intn(9) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 3:
		// Guard division: divisor is a non-zero literal.
		return fmt.Sprintf("(%s / %d)", g.intExpr(depth-1), g.rng.Intn(9)+1)
	case 4:
		return fmt.Sprintf("(%s %% %d)", g.intExpr(depth-1), g.rng.Intn(9)+1)
	case 5:
		return fmt.Sprintf("(%s < %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 6:
		return fmt.Sprintf("(%s && %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 7:
		return fmt.Sprintf("(%s ? %s : %s)", g.intExpr(depth-1), g.intExpr(depth-1), g.intExpr(depth-1))
	default:
		return fmt.Sprintf("(%s ^ %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	}
}

func (g *progGen) floatExpr(depth int) string {
	if depth <= 0 {
		switch g.rng.Intn(3) {
		case 0:
			return fmt.Sprintf("%g", float64(g.rng.Intn(100))/4+0.25)
		case 1:
			return "x"
		default:
			return "input[0].value"
		}
	}
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s * %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s - %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	default:
		return fmt.Sprintf("(%s > %s ? %s : %s)",
			g.floatExpr(depth-1), g.floatExpr(depth-1), g.floatExpr(depth-1), g.floatExpr(depth-1))
	}
}

func (g *progGen) stmt(depth int) {
	switch g.rng.Intn(7) {
	case 0:
		fmt.Fprintf(&g.sb, "a = %s;\n", g.intExpr(depth))
	case 1:
		fmt.Fprintf(&g.sb, "b += %s;\n", g.intExpr(depth-1))
	case 2:
		fmt.Fprintf(&g.sb, "x = %s;\n", g.floatExpr(depth))
	case 3:
		fmt.Fprintf(&g.sb, "if (%s) { a = a + 1; } else { b = b - 1; }\n", g.intExpr(depth-1))
	case 4:
		fmt.Fprintf(&g.sb, "for (i = 0; i < %d; i++) { a += i; }\n", g.rng.Intn(6)+1)
	case 5:
		fmt.Fprintf(&g.sb, "if (%s > 0.5) { output[0] = input[0]; output[0].value = %s; }\n",
			g.floatExpr(depth-1), g.floatExpr(depth-1))
	default:
		fmt.Fprintf(&g.sb, "a++;\n")
	}
}

func (g *progGen) program(nStmts int) string {
	g.sb.Reset()
	g.sb.WriteString("int a = 1; int b = 2; int i = 0; double x = 0.5;\n")
	for j := 0; j < nStmts; j++ {
		g.stmt(2)
	}
	g.sb.WriteString("return a * 1000 + b;\n")
	return g.sb.String()
}

func TestVMInterpreterParityOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20030623))
	g := &progGen{rng: rng}
	for trial := 0; trial < 300; trial++ {
		src := g.program(rng.Intn(8) + 1)
		f, err := Compile(src, nil)
		if err != nil {
			t.Fatalf("trial %d: generated program failed to compile: %v\n%s", trial, err, src)
		}
		mkEnv := func() *Env {
			env := f.NewEnv(4)
			env.Input = []Record{{ID: 5, Value: 1.25, LastSent: 1.0, Timestamp: 10}}
			return env
		}
		envVM, envIn := mkEnv(), mkEnv()
		resVM, errVM := f.Run(nil, envVM)
		resIn, errIn := oracle(f, envIn)
		if (errVM == nil) != (errIn == nil) {
			t.Fatalf("trial %d: error mismatch vm=%v interp=%v\n%s", trial, errVM, errIn, src)
		}
		if errVM != nil {
			continue
		}
		if resVM != resIn {
			t.Fatalf("trial %d: result mismatch vm=%+v interp=%+v\n%s", trial, resVM, resIn, src)
		}
		if envVM.OutCount() != envIn.OutCount() {
			t.Fatalf("trial %d: OutCount mismatch %d vs %d\n%s", trial, envVM.OutCount(), envIn.OutCount(), src)
		}
		for i := 0; i < envVM.OutCount(); i++ {
			if envVM.Output[i] != envIn.Output[i] {
				t.Fatalf("trial %d: output[%d] mismatch %+v vs %+v\n%s",
					trial, i, envVM.Output[i], envIn.Output[i], src)
			}
		}
	}
}

// compoundOrderPrograms assign to their target inside the right side of a
// compound assignment. The target's current value is read before the right
// side runs, so each returns the old value combined with the new one.
var compoundOrderPrograms = []struct {
	src  string
	want Result
}{
	{"input[0].value += (input[0].value = 1.0); return input[0].value;", Result{Type: TypeFloat, F: 3 + 1}},
	{"output[0].id += (output[0].id = 5); return output[0].id;", Result{Type: TypeInt, Int: 0 + 5}},
	{"int a = 3; a += (a = 1); return a;", Result{Type: TypeInt, Int: 3 + 1}},
	{"nclients *= (nclients = 2); return nclients;", Result{Type: TypeInt, Int: 3 * 2}},
	{"cpu_load -= (cpu_load = 0.25); return cpu_load;", Result{Type: TypeFloat, F: 0.5 - 0.25}},
}

func TestCompoundAssignReadsTargetFirst(t *testing.T) {
	for _, c := range compoundOrderPrograms {
		f := MustCompile(c.src, testSpec())
		env, envIn := parityEnv(f), parityEnv(f)
		res, err := f.Run(nil, env)
		resIn, errIn := oracle(f, envIn)
		if err != nil || errIn != nil {
			t.Fatalf("%s: compiled err %v, interpreter err %v", c.src, err, errIn)
		}
		if res != c.want || resIn != c.want {
			t.Fatalf("%s: compiled %+v, interpreter %+v, want %+v", c.src, res, resIn, c.want)
		}
		if !sameEnv(env, envIn) {
			t.Fatalf("%s: compiled and interpreter leave different environments", c.src)
		}
	}
}

func TestRecompiledProgramSameBehavior(t *testing.T) {
	// Simulates the control channel round trip: source → compile at sender,
	// redistribute source, compile at receiver, identical semantics.
	rng := rand.New(rand.NewSource(42))
	g := &progGen{rng: rng}
	for trial := 0; trial < 50; trial++ {
		src := g.program(5)
		f1 := MustCompile(src, nil)
		f2 := MustCompile(f1.Source(), nil)
		env1, env2 := f1.NewEnv(4), f2.NewEnv(4)
		env1.Input = []Record{{Value: 2}}
		env2.Input = []Record{{Value: 2}}
		r1, e1 := f1.Run(nil, env1)
		r2, e2 := f2.Run(nil, env2)
		if (e1 == nil) != (e2 == nil) || r1 != r2 {
			t.Fatalf("trial %d: round-tripped filter differs: %+v/%v vs %+v/%v", trial, r1, e1, r2, e2)
		}
	}
}
