package ecode

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dproc/internal/metrics"
)

// filterSpec is d-mon's filter environment (dmon.FilterSpec), rebuilt here
// because dmon imports this package.
func filterSpec() *EnvSpec {
	consts := map[string]int64{}
	for name, idx := range metrics.FilterSymbols() {
		consts[name] = int64(idx)
	}
	return &EnvSpec{Consts: consts}
}

// FuzzCompile takes any bytes as filter source, as a control-channel peer
// may send them: Compile never panics, refuses source over the size cap,
// and a filter that compiles runs on a step-limited VM without panicking.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		paperFigure3,
		"return 1;",
		"for (;;) {}",
		"return " + strings.Repeat("(", 64) + "1" + strings.Repeat(")", 64) + ";",
		"int a = 1; return a" + strings.Repeat("+a", 64) + ";",
		strings.Repeat(" ", maxSourceBytes) + "return 1;",
	} {
		f.Add(seed)
	}
	spec := filterSpec()
	f.Fuzz(func(t *testing.T, src string) {
		filter, err := Compile(src, spec)
		if len(src) > maxSourceBytes {
			if err == nil {
				t.Fatalf("compiled %d bytes of source, over the %d-byte cap", len(src), maxSourceBytes)
			}
			return
		}
		if err != nil {
			return
		}
		env := filter.NewEnv(int(metrics.NumIDs))
		env.Input = make([]Record, metrics.NumIDs)
		// Any result or runtime error will do; only a panic fails.
		_, _ = filter.Run(&VM{MaxSteps: 1 << 14}, env)
	})
}

// FuzzFilterParity holds the two executors of one program to one answer:
// Compile's generated closures and the interpreter walking the checked AST
// (oracle). Every source that compiles against testSpec is a case; the seeds
// are programs of the parity tests' generator, programs that end in each
// runtime error, and compound assignments whose right side writes their
// target. The error kind must agree and, on success, the result, the output
// and input records and the globals.
//
// A compiled filter charges a statement's expression nodes up front and
// the interpreter charges the nodes it evaluates, blocks included, so the
// two exhaust DefaultMaxSteps on different computations: a program that
// runs out of one budget but not the other is skipped. ErrSteps parity is
// asserted only where both run out, as on any loop that never terminates.
func FuzzFilterParity(f *testing.F) {
	rng := rand.New(rand.NewSource(20030625))
	g := &progGen{rng: rng}
	for i := 0; i < 32; i++ {
		f.Add(g.program(rng.Intn(8) + 1))
	}
	for _, seed := range []string{
		paperFigure3,
		"int zero = 0; return 1 / zero;",
		"int zero = 0; int k = 5; k %= zero; return k;",
		"output[0] = input[10];",
		"int i = 9; output[i] = input[0];",
		"output[7];",
		"for (;;) {}",
		"int n = 0; while (1) { n++; }",
		"nclients = nclients + 1; cpu_load = cpu_load * 2.0; return nclients;",
		"double x = 1.0 / 0.0; return x - x;",
	} {
		f.Add(seed)
	}
	for _, c := range compoundOrderPrograms {
		f.Add(c.src)
	}
	spec := testSpec()
	f.Fuzz(func(t *testing.T, src string) {
		filter, err := Compile(src, spec)
		if err != nil {
			return
		}
		envVM, envIn := parityEnv(filter), parityEnv(filter)
		resVM, errVM := filter.Run(nil, envVM)
		resIn, errIn := oracle(filter, envIn)
		if errors.Is(errVM, ErrSteps) != errors.Is(errIn, ErrSteps) {
			t.Skip("the program ends between the two executors' step budgets")
		}
		if errKind(errVM) != errKind(errIn) {
			t.Fatalf("compiled: %v; interpreter: %v\n%s", errVM, errIn, src)
		}
		if errVM != nil {
			return
		}
		if !sameResult(resVM, resIn) {
			t.Fatalf("compiled returned %+v, interpreter %+v\n%s", resVM, resIn, src)
		}
		if !sameEnv(envVM, envIn) {
			t.Fatalf("compiled filter and interpreter leave different environments\n%s", src)
		}
	})
}

// parityEnv is the environment every executor of a parity case starts from:
// the four records the paper's Figure 3 filter reads, four output slots and
// set globals.
func parityEnv(f *Filter) *Env {
	env := f.NewEnv(4)
	env.Input = []Record{
		{ID: 0, Value: 3, LastSent: 2.5, Timestamp: 10},
		{ID: 1, Value: 20000, LastSent: 18000, Timestamp: 11},
		{ID: 2, Value: 40e6, LastSent: 40e6, Timestamp: 12},
		{ID: 3, Value: 9000, LastSent: 8000, Timestamp: 13},
	}
	for i := range env.Ints {
		env.Ints[i] = int64(3 + i)
	}
	for i := range env.Floats {
		env.Floats[i] = 0.5 + float64(i)
	}
	return env
}

// errKind names the runtime error class of err; an error outside the three
// runtime classes compares by its message.
func errKind(err error) string {
	if err == nil {
		return "ok"
	}
	for _, kind := range []error{ErrSteps, ErrBounds, ErrDivZero} {
		if errors.Is(err, kind) {
			return kind.Error()
		}
	}
	return err.Error()
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

func sameResult(a, b Result) bool {
	return a.Type == b.Type && a.Int == b.Int && sameFloat(a.F, b.F)
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !sameFloat(a[i].Value, b[i].Value) ||
			!sameFloat(a[i].LastSent, b[i].LastSent) || !sameFloat(a[i].Timestamp, b[i].Timestamp) {
			return false
		}
	}
	return true
}

// sameEnv compares what a run leaves in an environment.
func sameEnv(a, b *Env) bool {
	if a.OutCount() != b.OutCount() || !sameRecords(a.Input, b.Input) || !sameRecords(a.Output, b.Output) {
		return false
	}
	for i := range a.Ints {
		if a.Ints[i] != b.Ints[i] {
			return false
		}
	}
	for i := range a.Floats {
		if !sameFloat(a.Floats[i], b.Floats[i]) {
			return false
		}
	}
	return true
}
