package workload

import (
	"cloudburst/internal/job"
	"cloudburst/internal/stats"
)

// TruthModel is the hidden processing-time law of the document domain: a
// quadratic function of the features (so a QRSM is the right model family)
// scaled by a per-class multiplier, with multiplicative lognormal noise
// representing the residual variation the paper attributes to "the
// multitude of features within a document".
//
// Times are standard-machine seconds. The default coefficients put a
// 150 MB marketing document around 6–8 minutes of processing — comparable
// to its transfer time on a ~500 kB/s effective pipe, which is the regime
// the paper targets.
type TruthModel struct {
	NoiseCV float64

	// Coefficients of the quadratic law.
	Base          float64
	PerMB         float64
	PerMB2        float64
	PerImage      float64
	PerPage       float64
	ResColor      float64 // resolution·colorFraction cross term
	PerCoverage   float64
	ClassFactor   [job.NumClasses]float64
	MinimumSecond float64
}

// NewTruthModel returns the default law with the given noise CV.
func NewTruthModel(noiseCV float64) *TruthModel {
	return &TruthModel{
		NoiseCV:     noiseCV,
		Base:        10,
		PerMB:       1.5,
		PerMB2:      0.004,
		PerImage:    0.5,
		PerPage:     0.2,
		ResColor:    0.02,
		PerCoverage: 40,
		ClassFactor: [job.NumClasses]float64{
			job.Newspaper:    0.9,
			job.Book:         0.8,
			job.Marketing:    1.3,
			job.MailCampaign: 1.0,
			job.Statement:    0.7,
			job.Promotional:  1.2,
		},
		MinimumSecond: 1,
	}
}

// Mean returns the noise-free processing time for the features.
func (t *TruthModel) Mean(f job.Features) float64 {
	v := t.Base +
		t.PerMB*f.SizeMB +
		t.PerMB2*f.SizeMB*f.SizeMB +
		t.PerImage*f.Images +
		t.PerPage*f.Pages +
		t.ResColor*f.ResolutionDPI*f.ColorFraction +
		t.PerCoverage*f.Coverage
	if c := int(f.Class); c >= 0 && c < len(t.ClassFactor) && t.ClassFactor[c] > 0 {
		v *= t.ClassFactor[c]
	}
	if v < t.MinimumSecond {
		v = t.MinimumSecond
	}
	return v
}

// Sample draws an actual processing time: the mean perturbed by lognormal
// noise with the model's CV.
func (t *TruthModel) Sample(rng *stats.RNG, f job.Features) float64 {
	v := t.Mean(f)
	if t.NoiseCV > 0 {
		v *= rng.LogNormalMeanCV(1, t.NoiseCV)
	}
	if v < t.MinimumSecond {
		v = t.MinimumSecond
	}
	return v
}

// BootstrapSet synthesizes n historical (features, observed time) pairs —
// the "standard set of production data observed across a variety of
// locations" that seeds the QRSM before any run.
func BootstrapSet(seed int64, n int, noiseCV float64) ([]job.Features, []float64) {
	rng := stats.NewRNG(seed)
	truth := NewTruthModel(noiseCV)
	fs := make([]job.Features, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		size := rng.Uniform(1, 300)
		fs[i] = SynthFeatures(rng, size)
		ys[i] = truth.Sample(rng, fs[i])
	}
	rng.Release()
	return fs, ys
}

// DiurnalDemand scales a base λ by the hour of day: document factories see
// business-hours peaks. It is the default rate function of the streaming
// arrival process (Stream/StreamConfig.Rate), giving every always-on run
// the day-shape the finite benchmarks flatten away. The shape, with t=0 as
// midnight:
//
//	00:00–06:00  0.3×λ  overnight trickle
//	06:00–09:00  1.0×λ  morning shoulder
//	09:00–17:00  1.5×λ  business-hours peak
//	17:00–21:00  1.0×λ  evening shoulder
//	21:00–24:00  0.3×λ  overnight trickle
func DiurnalDemand(baseLambda float64, t float64) float64 {
	hour := int(t/3600) % 24
	switch {
	case hour >= 9 && hour < 17:
		return baseLambda * 1.5
	case hour >= 6 && hour < 9, hour >= 17 && hour < 21:
		return baseLambda
	default:
		return baseLambda * 0.3
	}
}
