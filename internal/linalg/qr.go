package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system is numerically rank-deficient.
var ErrSingular = errors.New("linalg: matrix is singular or rank-deficient")

// QR holds a Householder QR factorization A = Q*R of an m×n matrix with
// m >= n. Q is stored implicitly as Householder vectors in the lower
// trapezoid; R occupies the upper triangle. The factors are kept
// column-major: every Householder step walks one column top to bottom, so
// this layout turns the hot loops into contiguous scans (the row-major
// version strides by n on every access and dominated the fit profile).
type QR struct {
	a    []float64 // m×n, column-major: column j is a[j*m : (j+1)*m]
	rd   []float64 // diagonal of R
	m, n int
	band int // column k is structurally zero below row band+k (see factor)
}

// NewQR factors a (m×n, m>=n). The input is not modified.
func NewQR(a *Matrix) *QR {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("linalg: QR needs rows >= cols, got %dx%d", a.Rows, a.Cols))
	}
	m, n := a.Rows, a.Cols
	q := &QR{a: make([]float64, m*n), rd: make([]float64, n), m: m, n: n, band: m}
	transposeInto(q.a, a, m)
	q.factor()
	return q
}

// transposeInto writes the row-major a into the column-major dst, whose
// columns start every ld elements. Rows past a.Rows are left untouched.
func transposeInto(dst []float64, a *Matrix, ld int) {
	for j := 0; j < a.Cols; j++ {
		cj := dst[j*ld:][:a.Rows]
		for i := range cj {
			cj[i] = a.Data[i*a.Cols+j]
		}
	}
}

// factor runs the Householder sweep over q.a in place, filling q.rd. It is
// the package's one factorization kernel: NewQR, LeastSquares,
// RidgeLeastSquares and Workspace.Solve all end here.
//
// q.band declares known structure: column k is exactly zero below row
// band+k-1 on entry (band = m declares a dense matrix). Ridge augmentation
// produces such systems — the sqrt(lambda)·I tail — and the zero suffix is
// invariant under the factorization: reflector k has the same support, so
// it can neither read nor produce nonzeros past it. Truncating the loops
// there only drops terms that multiply exact zeros.
//
// Reflector k is applied to the trailing columns four at a time. Each
// column keeps its own accumulator, summed over the same rows in the same
// order as a one-column loop would, so the four dot products are four
// independent add chains (instead of one latency-bound chain) over
// bit-identical operands: the factors do not change by one ulp.
func (q *QR) factor() {
	buf, rd, m, n, band := q.a, q.rd, q.m, q.n, q.band
	for k := 0; k < n; k++ {
		ck := buf[k*m : (k+1)*m]
		hi := band + k + 1 // one past the last structurally nonzero row
		if hi > m {
			hi = m
		}
		v := ck[k:hi]
		// Householder vector for column k. Norm2 skips zeros internally, so
		// the truncated span yields the identical norm.
		nrm := Norm2(v)
		if nrm == 0 {
			rd[k] = 0
			continue
		}
		if v[0] < 0 {
			nrm = -nrm
		}
		for i := range v {
			v[i] /= nrm
		}
		v[0]++
		j := k + 1
		for ; j+4 <= n; j += 4 {
			reflect4(v, buf[j*m:][k:hi], buf[(j+1)*m:][k:hi], buf[(j+2)*m:][k:hi], buf[(j+3)*m:][k:hi])
		}
		for ; j < n; j++ {
			reflect(v, buf[j*m:][k:hi])
		}
		rd[k] = -nrm
	}
}

// reflect applies the Householder reflector stored in v (pivot v[0]) to c,
// which must be at least as long as v.
func reflect(v, c []float64) {
	c = c[:len(v)]
	var s float64
	for i, vi := range v {
		s += vi * c[i]
	}
	s = -s / v[0]
	for i, vi := range v {
		c[i] += s * vi
	}
}

// reflect4 is reflect on four columns at once: each keeps its own
// accumulator, so the arithmetic per column is exactly reflect's. It is a
// function of its own so that the compiler keeps the loop state in
// registers.
func reflect4(v, c0, c1, c2, c3 []float64) {
	c0, c1, c2, c3 = c0[:len(v)], c1[:len(v)], c2[:len(v)], c3[:len(v)]
	var s0, s1, s2, s3 float64
	for i, vi := range v {
		s0 += vi * c0[i]
		s1 += vi * c1[i]
		s2 += vi * c2[i]
		s3 += vi * c3[i]
	}
	dk := v[0]
	s0, s1, s2, s3 = -s0/dk, -s1/dk, -s2/dk, -s3/dk
	for i, vi := range v {
		c0[i] += s0 * vi
		c1[i] += s1 * vi
		c2[i] += s2 * vi
		c3[i] += s3 * vi
	}
}

// FullRank reports whether R has no (near-)zero diagonal entries relative to
// the largest one.
func (q *QR) FullRank() bool {
	var maxd float64
	for _, d := range q.rd {
		if math.Abs(d) > maxd {
			maxd = math.Abs(d)
		}
	}
	if maxd == 0 {
		return false
	}
	tol := maxd * 1e-12 * float64(q.m)
	for _, d := range q.rd {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

// Solve returns the least-squares solution x minimizing ||A*x - b||₂.
// b must have length m. It returns ErrSingular for rank-deficient A.
func (q *QR) Solve(b []float64) ([]float64, error) {
	x := make([]float64, q.n)
	if err := q.solveInto(b, make([]float64, q.m), x); err != nil {
		return nil, err
	}
	return x, nil
}

// solveInto is Solve with caller-provided scratch: y (length m) holds the
// transformed right-hand side, x (length n) receives the solution. The
// arithmetic is identical to Solve — the buffers are fully overwritten.
func (q *QR) solveInto(b, y, x []float64) error {
	if len(b) != q.m {
		panic(fmt.Sprintf("linalg: QR solve rhs length %d, want %d", len(b), q.m))
	}
	if !q.FullRank() {
		return ErrSingular
	}
	copy(y, b)
	// Apply Qᵀ to b. Each reflector's support ends at the band limit, so
	// the loops stop there (the skipped products are exactly zero).
	for k := 0; k < q.n; k++ {
		ck := q.a[k*q.m : (k+1)*q.m]
		if ck[k] == 0 {
			continue
		}
		hi := q.band + k + 1
		if hi > q.m {
			hi = q.m
		}
		reflect(ck[k:hi], y[k:hi])
	}
	// Back-substitute R*x = y[:n].
	for k := q.n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < q.n; j++ {
			s -= q.a[j*q.m+k] * x[j]
		}
		x[k] = s / q.rd[k]
	}
	return nil
}

// LeastSquares solves min ||A*x − b||₂ by QR. For rank-deficient systems it
// returns ErrSingular; callers that need a solution anyway should use
// RidgeLeastSquares.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	return RidgeLeastSquares(a, b, 0)
}

// RidgeLeastSquares solves min ||A*x − b||₂² + lambda*||x||₂² by augmenting A
// with sqrt(lambda)*I. Any lambda > 0 makes the system full rank, which is
// how the QRSM fit stays stable when document features are collinear.
// lambda == 0 is plain least squares.
func RidgeLeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	var ws Workspace
	slab, ld := ws.Design(a.Rows, a.Cols, lambda)
	transposeInto(slab, a, ld)
	return ws.Solve(b)
}

// Workspace holds the buffers of repeated ridge solves, so a model refitting
// in a loop allocates nothing once they reach their high-water size. The
// caller assembles each system's design matrix straight into the
// workspace's column-major slab (Design), then factors and solves it in
// place (Solve). The zero value is ready to use. A Workspace is not safe
// for concurrent use; each fitting goroutine needs its own.
type Workspace struct {
	qr QR        // the system being solved; qr.band is its data row count m
	y  []float64 // transformed rhs
	x  []float64 // solution
}

// growF returns s with length n, reusing its backing array when capacity
// allows and otherwise at least doubling it, so a system that grows by a
// few rows per solve reallocates O(log n) times rather than on every solve.
// Contents are unspecified; callers overwrite every element.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// Design sizes the workspace for the m×n ridge system with strength lambda
// and returns its column-major slab: the caller writes column j of the
// design matrix A into slab[j*ld : j*ld+m] — all m entries, since the slab
// holds stale values from earlier systems — and then calls Solve. For
// lambda > 0, ld = m+n and Design has already written the rows below m,
// the sqrt(lambda)·I augmentation; for lambda == 0, ld = m and the m×n
// block is factored alone. The slab is valid until the next Design.
func (ws *Workspace) Design(m, n int, lambda float64) (slab []float64, ld int) {
	if lambda < 0 {
		panic("linalg: negative ridge lambda")
	}
	if lambda == 0 && m < n {
		panic(fmt.Sprintf("linalg: QR needs rows >= cols, got %dx%d", m, n))
	}
	ld = m
	if lambda > 0 {
		ld = m + n
	}
	ws.qr.a = growF(ws.qr.a, ld*n)
	ws.qr.rd = growF(ws.qr.rd, n)
	ws.qr.m, ws.qr.n, ws.qr.band = ld, n, m
	if lambda > 0 {
		// The augmented tail is sqrt(lambda) on the diagonal and exact zeros
		// elsewhere; a reused slab carries stale values, so write them.
		s := math.Sqrt(lambda)
		for j := 0; j < n; j++ {
			tail := ws.qr.a[j*ld+m : (j+1)*ld]
			clear(tail)
			tail[j] = s
		}
	}
	return ws.qr.a, ld
}

// Solve factors the system assembled in the slab from the last Design and
// returns the ridge least-squares solution for the right-hand side b
// (length m). The factorization overwrites the slab. The returned solution
// aliases the workspace and is valid until the next Solve — callers that
// retain it must copy. It returns ErrSingular for a rank-deficient system,
// which needs lambda == 0.
func (ws *Workspace) Solve(b []float64) ([]float64, error) {
	q := &ws.qr
	if len(b) != q.band {
		panic(fmt.Sprintf("linalg: ridge rhs length %d, want %d", len(b), q.band))
	}
	q.factor()
	// Assemble the augmented rhs [b; 0] directly in y (solveInto's copy of
	// an aliased b/y is a no-op).
	ws.y = growF(ws.y, q.m)
	ws.x = growF(ws.x, q.n)
	copy(ws.y, b)
	clear(ws.y[len(b):])
	if err := q.solveInto(ws.y, ws.y, ws.x); err != nil {
		return nil, err
	}
	return ws.x, nil
}

// SolveSquare solves the square system A*x = b via QR (stable for the small
// systems used here).
func SolveSquare(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("linalg: SolveSquare needs square matrix, got %dx%d", a.Rows, a.Cols))
	}
	return LeastSquares(a, b)
}
