// Package workload implements the load the paper's evaluation and the
// scenario harness drive: linpack (a dense LU solve measuring
// floating-point throughput in Mflops, used to load CPUs and to observe CPU
// perturbation) and EventGen (a deterministic synthetic event load). The
// linpack solver is real — it factors an actual matrix and verifies its
// residual — so live-mode experiments exercise the real CPU path; the
// simulated experiments inject equivalent load into internal/simres hosts
// instead. Network perturbation (the paper's Iperf) is internal/netsim's
// link model, not a generator here.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dproc/internal/clock"
)

// LinpackResult reports one linpack run.
type LinpackResult struct {
	// N is the problem size (N x N matrix).
	N int
	// Mflops is the measured floating-point rate over the factor+solve.
	Mflops float64
	// Elapsed is the wall time of the numeric kernel.
	Elapsed time.Duration
	// Residual is the normalized backward error; ~O(1) for a healthy solve.
	Residual float64
}

// Flops returns the standard linpack operation count for size n:
// 2/3·n³ + 2·n².
func Flops(n int) float64 { return 2.0/3.0*float64(n)*float64(n)*float64(n) + 2*float64(n)*float64(n) }

// Linpack generates a random n×n system Ax = b, factors A with partial
// pivoting, solves for x, and reports the measured Mflops and the
// normalized residual. It times the kernel on the wall clock; simulations
// that need deterministic results use LinpackWith and a virtual clock.
func Linpack(n int, seed int64) (*LinpackResult, error) {
	return LinpackWith(n, seed, nil)
}

// LinpackWith is Linpack timed on an explicit clock (nil selects the real
// one). The numeric work — matrix, factorization, solution, residual — is a
// pure function of (n, seed) either way; only Elapsed and Mflops depend on
// the clock. Under a virtual clock that doesn't advance, Elapsed is 0 and
// Mflops reports 0 rather than a wall-time-dependent rate, so two simulated
// runs of the same scenario produce byte-identical results.
func LinpackWith(n int, seed int64, clk clock.Clock) (*LinpackResult, error) {
	if n < 2 {
		return nil, errors.New("workload: linpack size must be >= 2")
	}
	if clk == nil {
		clk = clock.NewReal()
	}
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n*n)
	aCopy := make([]float64, n*n)
	b := make([]float64, n)
	bCopy := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64() - 0.5
	}
	for i := range b {
		b[i] = rng.Float64() - 0.5
	}
	copy(aCopy, a)
	copy(bCopy, b)

	start := clk.Now()
	piv, err := luFactor(a, n)
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	copy(x, b)
	luSolve(a, n, piv, x)
	elapsed := clk.Now().Sub(start)

	res := residual(aCopy, bCopy, x, n)
	mflops := 0.0
	if elapsed > 0 {
		mflops = Flops(n) / elapsed.Seconds() / 1e6
	}
	return &LinpackResult{N: n, Mflops: mflops, Elapsed: elapsed, Residual: res}, nil
}

// luFactor performs in-place LU factorization with partial pivoting on the
// row-major n×n matrix a, returning the pivot indices.
func luFactor(a []float64, n int) ([]int, error) {
	piv := make([]int, n)
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		max := math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > max {
				max, p = v, i
			}
		}
		piv[k] = p
		if max == 0 {
			return nil, fmt.Errorf("workload: singular matrix at column %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
		}
		inv := 1 / a[k*n+k]
		for i := k + 1; i < n; i++ {
			m := a[i*n+k] * inv
			a[i*n+k] = m
			row := a[i*n : i*n+n]
			krow := a[k*n : k*n+n]
			for j := k + 1; j < n; j++ {
				row[j] -= m * krow[j]
			}
		}
	}
	return piv, nil
}

// luSolve solves LUx = b in place given the factorization and pivots. The
// factorization swaps whole rows (LAPACK getrf style), so all pivots apply
// to b before the triangular solves.
func luSolve(a []float64, n int, piv []int, b []float64) {
	for k := 0; k < n; k++ {
		if p := piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	// Forward-substitute L (unit diagonal).
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			b[i] -= a[i*n+k] * b[k]
		}
	}
	// Back-substitute U.
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i*n+j] * b[j]
		}
		b[i] = sum / a[i*n+i]
	}
}

// residual computes ||Ax - b||_inf / (||A||_inf · ||x||_inf · n · eps), the
// standard linpack backward-error check.
func residual(a, b, x []float64, n int) float64 {
	normA, normX, normR := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		rowSum := 0.0
		ax := 0.0
		for j := 0; j < n; j++ {
			rowSum += math.Abs(a[i*n+j])
			ax += a[i*n+j] * x[j]
		}
		if rowSum > normA {
			normA = rowSum
		}
		if v := math.Abs(x[i]); v > normX {
			normX = v
		}
		if v := math.Abs(ax - b[i]); v > normR {
			normR = v
		}
	}
	denom := normA * normX * float64(n) * 2.220446049250313e-16
	if denom == 0 {
		return 0
	}
	return normR / denom
}
