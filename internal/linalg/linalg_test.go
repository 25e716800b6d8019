package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixAndAccess(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("new matrix should be zero")
	}
}

func TestNewMatrixBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0x0 matrix did not panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatal("FromRows layout wrong")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	i := Identity(2)
	if MaxAbsDiff(a.Mul(i), a) != 0 || MaxAbsDiff(i.Mul(a), a) != 0 {
		t.Fatal("identity multiplication changed matrix")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c := a.Mul(b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if MaxAbsDiff(c, want) > 1e-12 {
		t.Fatalf("Mul = %v", c)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 2))
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 {
		t.Fatalf("T() wrong: %v", at)
	}
	if MaxAbsDiff(at.T(), a) != 0 {
		t.Fatal("double transpose should be identity")
	}
}

func TestRowColClone(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	r := a.Row(1)
	c := a.Col(0)
	if r[0] != 3 || r[1] != 4 || c[0] != 1 || c[1] != 3 {
		t.Fatal("Row/Col wrong")
	}
	r[0] = 99
	if a.At(1, 0) == 99 {
		t.Fatal("Row must return a copy")
	}
	cl := a.Clone()
	cl.Set(0, 0, 42)
	if a.At(0, 0) == 42 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) should be 0")
	}
	// Overflow safety.
	if math.IsInf(Norm2([]float64{1e200, 1e200}), 0) {
		t.Fatal("Norm2 overflowed")
	}
}

func TestQRSolveSquare(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := SolveSquare(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3
	if !almostEq(x[0], 1, 1e-10) || !almostEq(x[1], 3, 1e-10) {
		t.Fatalf("solution = %v, want [1 3]", x)
	}
}

func TestQRLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2 + 3x exactly from 5 consistent points.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(5, 2)
	b := make([]float64, 5)
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	coef, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(coef[0], 2, 1e-10) || !almostEq(coef[1], 3, 1e-10) {
		t.Fatalf("coef = %v, want [2 3]", coef)
	}
}

func TestQRLeastSquaresResidualOptimality(t *testing.T) {
	// With noise, the LS residual must be orthogonal to the column space:
	// Aᵀ(Ax−b) = 0.
	rng := rand.New(rand.NewSource(5))
	m, n := 30, 4
	a := NewMatrix(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := a.MulVec(x)
	for i := range r {
		r[i] -= b[i]
	}
	atr := a.T().MulVec(r)
	for j, v := range atr {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("normal equations violated at %d: %v", j, v)
		}
	}
}

func TestQRSingularDetection(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}) // rank 1
	_, err := LeastSquares(a, []float64{1, 2, 3})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if NewQR(a).FullRank() {
		t.Fatal("rank-1 matrix reported full rank")
	}
}

func TestQRZeroMatrix(t *testing.T) {
	a := NewMatrix(3, 2)
	if NewQR(a).FullRank() {
		t.Fatal("zero matrix reported full rank")
	}
	_, err := LeastSquares(a, []float64{0, 0, 0})
	if err == nil {
		t.Fatal("expected singular error for zero matrix")
	}
}

func TestQRWideMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wide matrix did not panic")
		}
	}()
	NewQR(NewMatrix(2, 3))
}

func TestRidgeRecoversSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}) // rank 1
	x, err := RidgeLeastSquares(a, []float64{1, 2, 3}, 1e-6)
	if err != nil {
		t.Fatalf("ridge failed on rank-deficient system: %v", err)
	}
	// Prediction should still be accurate on the consistent system.
	pred := a.MulVec(x)
	for i, want := range []float64{1, 2, 3} {
		if !almostEq(pred[i], want, 1e-3) {
			t.Fatalf("ridge prediction %d = %v, want %v", i, pred[i], want)
		}
	}
}

func TestRidgeZeroLambdaEqualsPlain(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x1, _ := RidgeLeastSquares(a, []float64{5, 10}, 0)
	x2, _ := LeastSquares(a, []float64{5, 10})
	for i := range x1 {
		if !almostEq(x1[i], x2[i], 1e-12) {
			t.Fatal("lambda=0 should equal plain least squares")
		}
	}
}

func TestRidgeNegativeLambdaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative lambda did not panic")
		}
	}()
	RidgeLeastSquares(NewMatrix(2, 2), []float64{1, 2}, -1)
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, 1}})
	b := []float64{10, 10}
	x0, _ := RidgeLeastSquares(a, b, 0)
	x1, _ := RidgeLeastSquares(a, b, 1)
	if !(Norm2(x1) < Norm2(x0)) {
		t.Fatalf("ridge did not shrink: %v vs %v", Norm2(x1), Norm2(x0))
	}
}

// Property: for random well-conditioned square systems, QR solving then
// multiplying back recovers the right-hand side.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed uint8) bool {
		n := 2 + int(seed)%5
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		x, err := SolveSquare(a, b)
		if err != nil {
			return false
		}
		back := a.MulVec(x)
		for i := range b {
			if !almostEq(back[i], b[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	s := FromRows([][]float64{{1, 2}}).String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}

// refFactor is the unblocked right-looking Householder sweep the
// column-blocked kernel replaced, kept as an oracle: the blocked kernel
// must reproduce its packed factors bit for bit.
func refFactor(q *QR) {
	buf, rd, m, n, band := q.a, q.rd, q.m, q.n, q.band
	for k := 0; k < n; k++ {
		ck := buf[k*m : (k+1)*m]
		hi := band + k + 1
		if hi > m {
			hi = m
		}
		nrm := Norm2(ck[k:hi])
		if nrm == 0 {
			rd[k] = 0
			continue
		}
		if ck[k] < 0 {
			nrm = -nrm
		}
		for i := k; i < hi; i++ {
			ck[i] /= nrm
		}
		ck[k]++
		dk := ck[k]
		for j := k + 1; j < n; j++ {
			cj := buf[j*m : (j+1)*m]
			var s float64
			for i := k; i < hi; i++ {
				s += ck[i] * cj[i]
			}
			s = -s / dk
			for i := k; i < hi; i++ {
				cj[i] += s * ck[i]
			}
		}
		rd[k] = -nrm
	}
}

// refSolveInto is the oracle's solve: Qᵀb by explicit index loops, then
// back-substitution.
func refSolveInto(q *QR, b, y, x []float64) error {
	if !q.FullRank() {
		return ErrSingular
	}
	copy(y, b)
	for k := 0; k < q.n; k++ {
		ck := q.a[k*q.m : (k+1)*q.m]
		if ck[k] == 0 {
			continue
		}
		hi := q.band + k + 1
		if hi > q.m {
			hi = q.m
		}
		var s float64
		for i := k; i < hi; i++ {
			s += ck[i] * y[i]
		}
		s = -s / ck[k]
		for i := k; i < hi; i++ {
			y[i] += s * ck[i]
		}
	}
	for k := q.n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < q.n; j++ {
			s -= q.a[j*q.m+k] * x[j]
		}
		x[k] = s / q.rd[k]
	}
	return nil
}

// oracleSolve factors the column-major ld×n system slab (rows past m hold
// the ridge tail) with the oracle and solves it for b.
func oracleSolve(slab []float64, m, n, ld int, b []float64) (*QR, []float64, error) {
	q := &QR{a: append([]float64(nil), slab...), rd: make([]float64, n), m: ld, n: n, band: m}
	refFactor(q)
	y := make([]float64, ld)
	copy(y, b)
	x := make([]float64, n)
	if err := refSolveInto(q, y, y, x); err != nil {
		return q, nil, err
	}
	return q, x, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// kernelCase is one system of the oracle test.
type kernelCase struct {
	name   string
	a      *Matrix
	b      []float64
	lambda float64
}

func kernelCases() []kernelCase {
	rng := rand.New(rand.NewSource(13))
	random := func(m, n int) (*Matrix, []float64) {
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64() * 100
		}
		return a, b
	}
	var cases []kernelCase
	// Every n mod 4 tail of the four-column blocks, plus the QRSM basis size
	// of the nine job features (55).
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 55} {
		for _, m := range []int{n, 2*n + 3} {
			for _, lambda := range []float64{0, 1e-6, 0.5} {
				a, b := random(m, n)
				cases = append(cases, kernelCase{fmt.Sprintf("random-%dx%d-l%g", m, n, lambda), a, b, lambda})
			}
		}
	}
	// A zero column takes the nrm == 0 path in the dense factorization
	// (and makes the plain system singular).
	for _, lambda := range []float64{0, 1e-6} {
		a, b := random(23, 9)
		for i := 0; i < a.Rows; i++ {
			a.Set(i, 4, 0)
		}
		cases = append(cases, kernelCase{fmt.Sprintf("zero-col-l%g", lambda), a, b, lambda})
	}
	// All-negative entries force a negative pivot at every early column.
	for _, lambda := range []float64{0, 1e-6} {
		a, b := random(40, 7)
		for i := range a.Data {
			a.Data[i] = -math.Abs(a.Data[i]) - 1
		}
		cases = append(cases, kernelCase{fmt.Sprintf("negative-l%g", lambda), a, b, lambda})
	}
	return cases
}

// TestKernelMatchesOracle pins the factorization arithmetic: the blocked
// kernel, reached through every entry point, must produce the oracle's
// packed factors, R diagonal and solution to the bit.
func TestKernelMatchesOracle(t *testing.T) {
	var negPivots, zeroPivots int
	for _, c := range kernelCases() {
		m, n := c.a.Rows, c.a.Cols
		var ws Workspace
		slab, ld := ws.Design(m, n, c.lambda)
		transposeInto(slab, c.a, ld)
		ref, wantX, wantErr := oracleSolve(slab, m, n, ld, c.b)

		gotX, gotErr := ws.Solve(c.b)
		if !sameBits(ws.qr.a, ref.a) || !sameBits(ws.qr.rd, ref.rd) {
			t.Errorf("%s: workspace factors differ from the oracle", c.name)
		}
		if gotErr != wantErr || !sameBits(gotX, wantX) {
			t.Errorf("%s: workspace solution %v (%v), oracle %v (%v)", c.name, gotX, gotErr, wantX, wantErr)
		}
		for _, d := range ref.rd {
			if d > 0 {
				negPivots++ // rd[k] = -nrm, with nrm negated for a negative pivot
			}
			if d == 0 {
				zeroPivots++
			}
		}

		x, err := RidgeLeastSquares(c.a, c.b, c.lambda)
		if err != wantErr || !sameBits(x, wantX) {
			t.Errorf("%s: RidgeLeastSquares %v (%v), oracle %v (%v)", c.name, x, err, wantX, wantErr)
		}
		if c.lambda != 0 {
			continue
		}
		q := NewQR(c.a)
		if !sameBits(q.a, ref.a) || !sameBits(q.rd, ref.rd) {
			t.Errorf("%s: NewQR factors differ from the oracle", c.name)
		}
		if x, err := q.Solve(c.b); err != wantErr || !sameBits(x, wantX) {
			t.Errorf("%s: QR.Solve %v (%v), oracle %v (%v)", c.name, x, err, wantX, wantErr)
		}
		if x, err := LeastSquares(c.a, c.b); err != wantErr || !sameBits(x, wantX) {
			t.Errorf("%s: LeastSquares %v (%v), oracle %v (%v)", c.name, x, err, wantX, wantErr)
		}
	}
	if negPivots == 0 || zeroPivots == 0 {
		t.Fatalf("cases reached %d negative and %d zero pivots; want both paths", negPivots, zeroPivots)
	}
}

// TestWorkspaceReuseBitIdentical solves a sequence of differently shaped
// systems through one workspace: stale slab contents from larger systems
// must not leak into smaller ones.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	var ws Workspace
	cases := kernelCases()
	for i := len(cases) - 1; i >= 0; i-- {
		c := cases[i]
		slab, ld := ws.Design(c.a.Rows, c.a.Cols, c.lambda)
		transposeInto(slab, c.a, ld)
		x, err := ws.Solve(c.b)
		want, wantErr := RidgeLeastSquares(c.a, c.b, c.lambda)
		if err != wantErr || !sameBits(x, want) {
			t.Errorf("%s: reused workspace %v (%v), fresh %v (%v)", c.name, x, err, want, wantErr)
		}
	}
}

// TestWorkspaceGrowthAmortized grows a system by 25 rows per solve, as a
// model refitting a lengthening window does: the slab must reallocate
// O(log n) times, not on every solve.
func TestWorkspaceGrowthAmortized(t *testing.T) {
	var ws Workspace
	const p = 55
	grows, lastCap := 0, 0
	for m := p; m <= 2000; m += 25 {
		ws.Design(m, p, 1e-6)
		if c := cap(ws.qr.a); c != lastCap {
			grows++
			lastCap = c
		}
	}
	if limit := bits.Len(2000); grows > limit {
		t.Fatalf("slab reallocated %d times over 78 growing solves, want <= %d", grows, limit)
	}
}

func TestWorkspaceRHSLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short rhs did not panic")
		}
	}()
	var ws Workspace
	ws.Design(4, 2, 1e-6)
	ws.Solve([]float64{1, 2, 3})
}
