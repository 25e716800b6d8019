package qrsm

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"testing"

	"cloudburst/internal/linalg"
	"cloudburst/internal/stats"
)

func TestBasisSize(t *testing.T) {
	cases := []struct{ dim, want int }{
		{1, 3},  // 1 + x + x²
		{2, 6},  // 1 + 2 + 1 + 2
		{3, 10}, // 1 + 3 + 3 + 3
		{9, 55},
	}
	for _, c := range cases {
		if got := BasisSize(c.dim); got != c.want {
			t.Fatalf("BasisSize(%d) = %d, want %d", c.dim, got, c.want)
		}
	}
}

func TestBasisExpansion(t *testing.T) {
	b := make([]float64, BasisSize(2))
	basisInto([]float64{2, 3}, b)
	want := []float64{1, 2, 3, 6, 4, 9} // 1, x1, x2, x1x2, x1², x2²
	if len(b) != len(want) {
		t.Fatalf("basis = %v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("basis[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestNewBadDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dim 0 did not panic")
		}
	}()
	New(0)
}

func TestFitRecoversExactQuadratic(t *testing.T) {
	// Ground truth: y = 5 + 2a + 3b - ab + 0.5a² + 0.25b², noise-free.
	truth := func(a, b float64) float64 {
		return 5 + 2*a + 3*b - a*b + 0.5*a*a + 0.25*b*b
	}
	m := New(2)
	g := stats.NewRNG(1)
	for i := 0; i < 100; i++ {
		a, b := g.Uniform(0, 10), g.Uniform(0, 5)
		m.Observe([]float64{a, b}, truth(a, b))
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	if m.R2() < 0.99999 {
		t.Fatalf("R² = %v on noise-free quadratic, want ≈1", m.R2())
	}
	for i := 0; i < 50; i++ {
		a, b := g.Uniform(0, 10), g.Uniform(0, 5)
		pred, err := m.Predict([]float64{a, b})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pred-truth(a, b)) > 1e-4 {
			t.Fatalf("Predict(%v,%v) = %v, want %v", a, b, pred, truth(a, b))
		}
	}
}

func TestFitWithNoiseDiagnostics(t *testing.T) {
	m := New(2)
	g := stats.NewRNG(2)
	truth := func(a, b float64) float64 { return 10 + a*a + 2*b }
	for i := 0; i < 400; i++ {
		a, b := g.Uniform(0, 10), g.Uniform(0, 10)
		m.Observe([]float64{a, b}, truth(a, b)+g.Normal(0, 2))
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	if m.R2() < 0.95 {
		t.Fatalf("R² = %v, want > 0.95 with modest noise", m.R2())
	}
	if m.RMSE() < 1 || m.RMSE() > 3 {
		t.Fatalf("RMSE = %v, want ≈2 (noise std)", m.RMSE())
	}
}

func TestFitTooFewSamples(t *testing.T) {
	m := New(3) // needs 10 samples
	for i := 0; i < 9; i++ {
		m.Observe([]float64{float64(i), 1, 2}, 1)
	}
	err := m.Fit()
	if !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("err = %v, want ErrTooFewSamples", err)
	}
	if m.Fitted() {
		t.Fatal("model claims fitted after failed Fit")
	}
}

func TestPredictBeforeFit(t *testing.T) {
	m := New(2)
	if _, err := m.Predict([]float64{1, 2}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
	if v := m.PredictClamped([]float64{1, 2}, 7); v != 7 {
		t.Fatalf("PredictClamped before fit = %v, want floor", v)
	}
}

func TestPredictDimMismatchPanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch did not panic")
		}
	}()
	m.Observe([]float64{1}, 2)
}

func TestPredictClampedFloor(t *testing.T) {
	// Fit y = x - 100 so predictions go negative for small x.
	m := New(1)
	for i := 0; i < 20; i++ {
		x := float64(i)
		m.Observe([]float64{x}, x-100)
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	if v := m.PredictClamped([]float64{1}, 0.5); v != 0.5 {
		t.Fatalf("clamp failed: %v", v)
	}
}

func TestConstantFeatureDoesNotBlowUp(t *testing.T) {
	// Second feature constant: scale guard must kick in, ridge must keep
	// the system solvable.
	m := New(2)
	g := stats.NewRNG(3)
	for i := 0; i < 50; i++ {
		a := g.Uniform(0, 10)
		m.Observe([]float64{a, 7}, 3*a+1)
	}
	if err := m.Fit(); err != nil {
		t.Fatalf("fit with constant feature failed: %v", err)
	}
	pred, _ := m.Predict([]float64{5, 7})
	if math.Abs(pred-16) > 0.5 {
		t.Fatalf("Predict = %v, want ≈16", pred)
	}
}

func TestCoefficientsCopy(t *testing.T) {
	m := New(1)
	for i := 0; i < 10; i++ {
		m.Observe([]float64{float64(i)}, float64(i))
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	c := m.Coefficients()
	c[0] = 999
	c2 := m.Coefficients()
	if c2[0] == 999 {
		t.Fatal("Coefficients must return a copy")
	}
	if len(c2) != BasisSize(1) {
		t.Fatalf("coef len = %d", len(c2))
	}
}

// rowMajorFit is the row-major assembly the column-assembled fit replaced:
// each sample standardized and expanded by basisInto into one row of an
// n×p matrix, then solved by the package-level ridge solver. It returns
// the coefficients and the diagnostics computed from them.
func rowMajorFit(t *testing.T, xs [][]float64, ys []float64, lambda float64) (coef []float64, r2, rmse float64) {
	t.Helper()
	n, dim := len(xs), len(xs[0])
	p := BasisSize(dim)
	mean, scale := make([]float64, dim), make([]float64, dim)
	for j := 0; j < dim; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += xs[i][j]
		}
		mean[j] = s / float64(n)
		var v float64
		for i := 0; i < n; i++ {
			d := xs[i][j] - mean[j]
			v += d * d
		}
		scale[j] = math.Sqrt(v / float64(n))
		if scale[j] == 0 {
			scale[j] = 1
		}
	}
	a := linalg.NewMatrix(n, p)
	z := make([]float64, dim)
	row := func(i int) []float64 {
		for j := range z {
			z[j] = (xs[i][j] - mean[j]) / scale[j]
		}
		out := make([]float64, p)
		basisInto(z, out)
		return out
	}
	for i := 0; i < n; i++ {
		copy(a.Data[i*p:(i+1)*p], row(i))
	}
	coef, err := linalg.RidgeLeastSquares(a, ys, lambda)
	if err != nil {
		t.Fatalf("row-major fit: %v", err)
	}
	var sse, sst, meanY float64
	for _, y := range ys {
		meanY += y
	}
	meanY /= float64(n)
	for i := 0; i < n; i++ {
		d := ys[i] - linalg.Dot(row(i), coef)
		sse += d * d
		dy := ys[i] - meanY
		sst += dy * dy
	}
	rmse = math.Sqrt(sse / float64(n))
	if sst > 0 {
		r2 = 1 - sse/sst
	}
	return coef, r2, rmse
}

// TestColumnAssemblyMatchesRowMajor pins the fit's design-matrix assembly:
// building the basis columns as elementwise products straight in the
// solver's workspace must give the row-major expansion's coefficients,
// R² and RMSE to the bit, on random windows of several shapes — one model
// refit as its window grows, so the workspace is reused throughout.
func TestColumnAssemblyMatchesRowMajor(t *testing.T) {
	g := stats.NewRNG(17)
	for _, dim := range []int{1, 2, 3, 9} {
		for _, lambda := range []float64{1e-6, 0} {
			m := New(dim)
			m.lambda = lambda
			var xs [][]float64
			var ys []float64
			p := BasisSize(dim)
			for _, n := range []int{p, p + 1, 2*p + 3, 5*p + 7, 400} {
				for len(ys) < n {
					x := make([]float64, dim)
					for j := range x {
						x[j] = g.Uniform(0, 10) * math.Pow(10, float64(j%3))
					}
					y := g.Normal(50, 20)
					xs, ys = append(xs, x), append(ys, y)
					m.Observe(x, y)
				}
				if err := m.Fit(); err != nil {
					t.Fatalf("dim %d n %d: %v", dim, n, err)
				}
				coef, r2, rmse := rowMajorFit(t, xs, ys, lambda)
				got := m.Coefficients()
				for i := range coef {
					if math.Float64bits(got[i]) != math.Float64bits(coef[i]) {
						t.Fatalf("dim %d n %d lambda %g: coef[%d] = %v, row-major %v", dim, n, lambda, i, got[i], coef[i])
					}
				}
				if math.Float64bits(m.R2()) != math.Float64bits(r2) || math.Float64bits(m.RMSE()) != math.Float64bits(rmse) {
					t.Fatalf("dim %d n %d lambda %g: R²/RMSE = %v/%v, row-major %v/%v",
						dim, n, lambda, m.R2(), m.RMSE(), r2, rmse)
				}
			}
		}
	}
}

// observeRandom feeds n random dim-feature samples to m.
func observeRandom(m *Model, g *stats.RNG, n int) {
	for i := 0; i < n; i++ {
		x := make([]float64, m.Dim())
		for j := range x {
			x[j] = g.Uniform(1, 300)
		}
		m.Observe(x, g.Normal(100, 30))
	}
}

// TestRefitAllocationFree pins the fit path's steady state: once a model's
// workspace has grown past the window it fits, an Observe plus a refit
// allocates nothing.
func TestRefitAllocationFree(t *testing.T) {
	const dim = 9
	x := make([]float64, dim)
	for j := range x {
		x[j] = float64(j + 1)
	}
	t.Run("growing", func(t *testing.T) {
		m := New(dim)
		g := stats.NewRNG(6)
		observeRandom(m, g, 1000)
		if err := m.Fit(); err != nil {
			t.Fatal(err)
		}
		// One more sample outgrows the workspace, which then doubles:
		// the refits below stay under its new high-water size.
		observeRandom(m, g, 1)
		if err := m.Fit(); err != nil {
			t.Fatal(err)
		}
		// Reserve the training slabs so the measured Observes do not grow
		// them; only the fit path is under test.
		m.xd = slices.Grow(m.xd, 64*dim)
		m.ys = slices.Grow(m.ys, 64)
		allocs := testing.AllocsPerRun(20, func() {
			m.Observe(x, 42)
			if err := m.Fit(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("growing refit allocated %v times per Observe+Fit, want 0", allocs)
		}
	})
}

// TestGrowingRefitAllocationsLogarithmic grows a model to 2000 samples with
// a requested fit and a consultation every 25, the cadence of a streaming
// per-class model: the whole history must cost O(log n) allocations (the
// amortized training and workspace slabs), not several per refit.
func TestGrowingRefitAllocationsLogarithmic(t *testing.T) {
	const dim, n, every = 9, 2000, 25
	g := stats.NewRNG(7)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = g.Uniform(1, 300)
		}
		ys[i] = g.Normal(100, 30)
	}
	grow := func(fit bool) float64 {
		return testing.AllocsPerRun(1, func() {
			m := New(dim)
			for i := range xs {
				m.Observe(xs[i], ys[i])
				if fit && (i+1)%every == 0 {
					m.RequestFit()
					m.PredictClamped(xs[i], 1)
				}
			}
		})
	}
	// The training slabs' own amortized appends are the baseline; the 80
	// fits may add only a logarithmic number of allocations on top (each
	// workspace slab doubles about five times on the way to 2000 rows).
	observeOnly, withFits := grow(false), grow(true)
	if limit := 3 * float64(bits.Len(n)); withFits-observeOnly > limit {
		t.Fatalf("growing to %d samples with a fit every %d: fits added %v allocations to %v, want <= %v",
			n, every, withFits-observeOnly, observeOnly, limit)
	}
}
