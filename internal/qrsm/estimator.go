package qrsm

import (
	"cloudburst/internal/job"
)

// Estimator is the processing-time oracle the schedulers consult. It keeps
// a global QRSM over all observed jobs plus one per job class (the paper
// extracts "a relevant set of features … for every job type"), refits
// periodically as completions stream in, and falls back to a
// seconds-per-megabyte heuristic until enough data accumulates.
//
// Estimates are for a standard (speed 1.0) machine; callers divide by the
// target machine's speed factor.
type Estimator struct {
	global     *Model
	perClass   []*Model
	refitEvery int // observations between automatic refits
	sinceRefit int
	version    uint64
}

// Version counts refits. Estimate is a pure function of (features, Version):
// observations only influence predictions after the next Refit, so callers
// may cache estimates keyed by job and version and stay bit-identical.
func (e *Estimator) Version() uint64 { return e.version }

var featureDim = len(job.Features{}.Vector())

const (
	// estimateFloor is the minimum returned estimate, in seconds.
	estimateFloor = 1
	// fallbackSecPerMB is the pre-fit heuristic in seconds per input
	// megabyte, matching the synthetic workload's scale.
	fallbackSecPerMB = 2.0
)

// NewEstimator returns an estimator with no training data.
func NewEstimator() *Estimator {
	e := &Estimator{
		global:     New(featureDim),
		perClass:   make([]*Model, job.NumClasses),
		refitEvery: 25,
	}
	for i := range e.perClass {
		e.perClass[i] = New(featureDim)
	}
	return e
}

// Observe records an actual processing time (standard-machine seconds) for
// a job's features and refits when the refit cadence is due.
func (e *Estimator) Observe(f job.Features, seconds float64) {
	x := f.Vector()
	e.global.Observe(x, seconds)
	if c := int(f.Class); c >= 0 && c < len(e.perClass) {
		e.perClass[c].Observe(x, seconds)
	}
	e.sinceRefit++
	if e.sinceRefit >= e.refitEvery {
		e.Refit()
	}
}

// Refit refits every model that has enough samples. Fit errors (too few
// samples) are expected early on and simply leave the previous fit active.
//
// The fits are requested, not computed: each model materializes its fit on
// the next consultation (RequestFit), so back-to-back refit cadences with
// no intervening Estimate collapse into the one factorization an eager
// caller would actually have observed. The Version contract is unchanged —
// Estimate remains a pure function of (features, Version) — because the
// deferred fit covers exactly the window snapshotted at request time.
func (e *Estimator) Refit() {
	e.sinceRefit = 0
	e.version++
	e.global.RequestFit()
	for _, m := range e.perClass {
		m.RequestFit()
	}
}

// Materialize forces every deferred fit to run now. Callers that cache a
// bootstrapped estimator as a prototype use this to pay the bootstrap
// factorizations once instead of once per clone.
func (e *Estimator) Materialize() {
	e.global.materialize()
	for _, m := range e.perClass {
		m.materialize()
	}
}

// CloneInto deep-copies the estimator's semantic state into dst, reusing
// dst's model slabs where capacity allows, and returns dst (allocating one
// when nil). The clone shares no mutable state with the receiver.
func (e *Estimator) CloneInto(dst *Estimator) *Estimator {
	if dst == nil {
		dst = &Estimator{}
	}
	dst.global = e.global.CloneInto(dst.global)
	if len(dst.perClass) != len(e.perClass) {
		dst.perClass = make([]*Model, len(e.perClass))
	}
	for i, m := range e.perClass {
		dst.perClass[i] = m.CloneInto(dst.perClass[i])
	}
	dst.refitEvery = e.refitEvery
	dst.sinceRefit = e.sinceRefit
	dst.version = e.version
	return dst
}

// Bootstrap seeds the estimator from a standard production dataset — the
// paper "starts with an initial best estimate model based on a standard set
// of production data" — and fits immediately.
func (e *Estimator) Bootstrap(features []job.Features, seconds []float64) {
	if len(features) != len(seconds) {
		panic("qrsm: bootstrap length mismatch")
	}
	for i := range features {
		x := features[i].Vector()
		e.global.Observe(x, seconds[i])
		if c := int(features[i].Class); c >= 0 && c < len(e.perClass) {
			e.perClass[c].Observe(x, seconds[i])
		}
	}
	e.Refit()
}

// Estimate returns the predicted standard-machine processing time for a job
// with the given features. Preference order: well-determined class model,
// fitted global model, size heuristic. A class model that merely
// interpolates its few samples is skipped — its edge behaviour is wild.
func (e *Estimator) Estimate(f job.Features) float64 {
	x := f.Vector()
	if c := int(f.Class); c >= 0 && c < len(e.perClass) && e.perClass[c].WellDetermined() {
		return e.perClass[c].PredictClamped(x, estimateFloor)
	}
	if e.global.Fitted() {
		return e.global.PredictClamped(x, estimateFloor)
	}
	v := fallbackSecPerMB * f.SizeMB
	if v < estimateFloor {
		return estimateFloor
	}
	return v
}

// GlobalModel exposes the global QRSM for diagnostics (Fig. 3 reports the
// fitted surface).
func (e *Estimator) GlobalModel() *Model { return e.global }

// ClassModel returns the per-class model for c, or nil for an unknown class.
func (e *Estimator) ClassModel(c job.Class) *Model {
	if int(c) < 0 || int(c) >= len(e.perClass) {
		return nil
	}
	return e.perClass[c]
}
