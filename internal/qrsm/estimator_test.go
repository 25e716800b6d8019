package qrsm

import (
	"math"
	"testing"

	"cloudburst/internal/job"
	"cloudburst/internal/stats"
)

// synthFeatures builds a plausible document feature vector.
func synthFeatures(g *stats.RNG, class job.Class) job.Features {
	size := g.Uniform(1, 300)
	pages := math.Max(1, size*g.Uniform(0.3, 0.6))
	images := pages * g.Uniform(0.5, 3)
	return job.Features{
		SizeMB: size, Pages: pages, Images: images,
		AvgImageMB:    size * 0.6 / math.Max(1, images),
		ImagesPerPage: images / pages,
		ResolutionDPI: g.TruncNormal(300, 150, 72, 1200),
		ColorFraction: g.Float64(),
		TextRatio:     g.Float64(),
		Coverage:      g.Uniform(0.2, 1),
		Class:         class,
	}
}

// synthTruth is a quadratic ground-truth processing time.
func synthTruth(f job.Features) float64 {
	return 20 + 1.5*f.SizeMB + 0.8*f.Images + 0.004*f.SizeMB*f.SizeMB +
		0.05*f.ResolutionDPI*f.ColorFraction + 30*f.Coverage
}

func TestEstimatorFallbackBeforeData(t *testing.T) {
	e := NewEstimator()
	f := job.Features{SizeMB: 50}
	if got := e.Estimate(f); got != 100 {
		t.Fatalf("fallback estimate = %v, want 100", got)
	}
	f.SizeMB = 0.1
	if got := e.Estimate(f); got != 1 {
		t.Fatalf("floored fallback = %v, want 1", got)
	}
}

func TestEstimatorBootstrapThenAccurate(t *testing.T) {
	g := stats.NewRNG(10)
	e := NewEstimator()
	var fs []job.Features
	var ys []float64
	for i := 0; i < 300; i++ {
		f := synthFeatures(g, job.Class(i%job.NumClasses))
		fs = append(fs, f)
		ys = append(ys, synthTruth(f)*g.LogNormalMeanCV(1, 0.05))
	}
	e.Bootstrap(fs, ys)
	if !e.GlobalModel().Fitted() {
		t.Fatal("global model not fitted after 300-sample bootstrap")
	}
	var relErr stats.Summary
	for i := 0; i < 200; i++ {
		f := synthFeatures(g, job.Marketing)
		want := synthTruth(f)
		got := e.Estimate(f)
		relErr.Add(math.Abs(got-want) / want)
	}
	if relErr.Mean() > 0.15 {
		t.Fatalf("mean relative error = %v, want < 0.15", relErr.Mean())
	}
}

func TestEstimatorBootstrapLengthMismatchPanics(t *testing.T) {
	e := NewEstimator()
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	e.Bootstrap(make([]job.Features, 2), make([]float64, 3))
}

func TestEstimatorOnlineRefit(t *testing.T) {
	g := stats.NewRNG(11)
	e := NewEstimator()
	e.refitEvery = 10
	// Stream enough observations that auto-refit fires (needs 55+ for the
	// 9-feature model).
	for i := 0; i < 120; i++ {
		f := synthFeatures(g, job.Book)
		e.Observe(f, synthTruth(f))
	}
	if !e.GlobalModel().Fitted() {
		t.Fatal("auto-refit never fitted the global model")
	}
	f := synthFeatures(g, job.Book)
	got := e.Estimate(f)
	want := synthTruth(f)
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("online estimate = %v, want ≈%v", got, want)
	}
}

func TestEstimatorPerClassPreferred(t *testing.T) {
	g := stats.NewRNG(12)
	e := NewEstimator()
	e.refitEvery = 1000 // manual refit only
	// Class-specific truth: statements are much cheaper than the global mix.
	for i := 0; i < 200; i++ {
		f := synthFeatures(g, job.Statement)
		e.Observe(f, 0.1*synthTruth(f))
	}
	for i := 0; i < 200; i++ {
		f := synthFeatures(g, job.Book)
		e.Observe(f, synthTruth(f))
	}
	e.Refit()
	f := synthFeatures(g, job.Statement)
	got := e.Estimate(f)
	want := 0.1 * synthTruth(f)
	if math.Abs(got-want)/want > 0.3 {
		t.Fatalf("per-class estimate = %v, want ≈%v (class model should win)", got, want)
	}
}

func TestEstimatorEstimatePositive(t *testing.T) {
	g := stats.NewRNG(13)
	e := NewEstimator()
	for i := 0; i < 100; i++ {
		f := synthFeatures(g, job.Newspaper)
		e.Observe(f, synthTruth(f))
	}
	e.Refit()
	// Far-out-of-distribution query must still be positive.
	f := job.Features{SizeMB: 100000, Pages: 1, ResolutionDPI: 72}
	if got := e.Estimate(f); got <= 0 {
		t.Fatalf("estimate = %v, must be positive", got)
	}
}

func TestClassModelAccessor(t *testing.T) {
	e := NewEstimator()
	if e.ClassModel(job.Book) == nil {
		t.Fatal("ClassModel(Book) = nil")
	}
	if e.ClassModel(job.Class(-1)) != nil || e.ClassModel(job.Class(99)) != nil {
		t.Fatal("out-of-range class should return nil")
	}
}

func TestEstimatorErrorsEchoPaperBehaviour(t *testing.T) {
	// The paper notes the QRSM "occasionally overestimates". With noisy
	// training data the estimator must produce errors in both directions —
	// this is what drives the robustness differences between schedulers.
	g := stats.NewRNG(14)
	e := NewEstimator()
	var fs []job.Features
	var ys []float64
	for i := 0; i < 300; i++ {
		f := synthFeatures(g, job.Marketing)
		fs = append(fs, f)
		ys = append(ys, synthTruth(f)*g.LogNormalMeanCV(1, 0.25))
	}
	e.Bootstrap(fs, ys)
	over, under := 0, 0
	for i := 0; i < 300; i++ {
		f := synthFeatures(g, job.Marketing)
		truth := synthTruth(f) * g.LogNormalMeanCV(1, 0.25)
		if e.Estimate(f) > truth {
			over++
		} else {
			under++
		}
	}
	if over == 0 || under == 0 {
		t.Fatalf("estimator should err both ways: over=%d under=%d", over, under)
	}
}
