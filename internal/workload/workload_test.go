package workload

import (
	"math"
	"testing"
)

func TestFlopsFormula(t *testing.T) {
	// 2/3 n^3 + 2 n^2 at n=100: 666666.67 + 20000
	got := Flops(100)
	want := 2.0/3.0*1e6 + 2e4
	if math.Abs(got-want) > 1 {
		t.Fatalf("Flops(100) = %g, want %g", got, want)
	}
}

func TestLinpackSolvesAccurately(t *testing.T) {
	res, err := Linpack(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 100 {
		t.Fatalf("N = %d", res.N)
	}
	if res.Mflops <= 0 {
		t.Fatalf("Mflops = %g", res.Mflops)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("Elapsed = %v", res.Elapsed)
	}
	// A healthy solve has a normalized residual of O(1); allow slack.
	if res.Residual > 100 {
		t.Fatalf("Residual = %g, solver is numerically wrong", res.Residual)
	}
}

func TestLinpackDeterministicProblem(t *testing.T) {
	r1, err := Linpack(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Linpack(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same matrix → same residual (timing differs).
	if r1.Residual != r2.Residual {
		t.Fatalf("residuals differ for identical problems: %g vs %g", r1.Residual, r2.Residual)
	}
}

func TestLinpackSizeValidation(t *testing.T) {
	if _, err := Linpack(1, 0); err == nil {
		t.Fatal("size 1 accepted")
	}
	if _, err := Linpack(0, 0); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestLinpackVariousSizes(t *testing.T) {
	for _, n := range []int{2, 3, 10, 64} {
		res, err := Linpack(n, int64(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Residual > 1000 {
			t.Fatalf("n=%d: residual %g", n, res.Residual)
		}
	}
}

// BenchmarkLinpack times the linpack kernel Figure 4's live mode runs and
// reports the rate it reached on this host.
func BenchmarkLinpack(b *testing.B) {
	var mflops float64
	for i := 0; i < b.N; i++ {
		res, err := Linpack(200, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		mflops = res.Mflops
	}
	b.ReportMetric(mflops, "Mflops")
}

func TestLUFactorSingularMatrix(t *testing.T) {
	n := 3
	a := make([]float64, n*n) // all zeros: singular
	if _, err := luFactor(a, n); err == nil {
		t.Fatal("singular matrix factored without error")
	}
}

func TestLUKnownSystem(t *testing.T) {
	// A = [[2,1],[1,3]], b = [3,5] → x = [0.8, 1.4]
	a := []float64{2, 1, 1, 3}
	piv, err := luFactor(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{3, 5}
	luSolve(a, 2, piv, x)
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Fatalf("x = %v, want [0.8 1.4]", x)
	}
}
