// Package sla computes the paper's service-level metrics over completed
// job records: the Out-of-Order (OO) metric (Sec. II-B, eq. 3–6), makespan
// (eq. 7), speedup (eq. 10), burst ratio (eq. 11–12), and the in-order wait
// series behind the completion-time figures (Figs. 7–8).
//
// Records are keyed by a result-queue sequence number Seq (0-based): the
// position of the job in the post-chunking FCFS queue. The downstream
// consumer (printer, workflow stage) expects outputs in Seq order.
package sla

import (
	"cmp"
	"fmt"
	"slices"
)

// Where identifies the cloud that processed a job.
type Where int

const (
	// IC is the internal cloud.
	IC Where = iota
	// EC is the external cloud.
	EC
)

// String names the placement.
func (w Where) String() string {
	if w == EC {
		return "EC"
	}
	return "IC"
}

// Record is one completed job.
type Record struct {
	Seq         int   // result-queue position (0-based, post-chunking)
	JobID       int   // original job ID
	BatchID     int   // arrival batch
	OutputSize  int64 // bytes delivered downstream
	ArrivalTime float64
	CompletedAt float64 // when the output reached the result queue
	Where       Where
}

// Set accumulates completion records for one run.
type Set struct {
	records []Record
	seen    map[int]struct{}
	// sorted caches the records ordered by Seq. The OO metric evaluates the
	// sorted view once per sample point on a fine grid, so rebuilding (copy +
	// sort) per evaluation dominated OOSeries; the cache is invalidated by
	// Add and rebuilt at most once per mutation.
	sorted []Record
	dirty  bool

	// Scalar metrics fold in as records arrive, so Makespan, BurstRatio and
	// MeanFlowTime are O(1) at read time instead of re-walking the set. The
	// accumulators mirror the summation order of the loops they replace
	// (insertion order), so the floating-point results are bit-identical.
	minArrival  float64
	maxDone     float64
	ecCount     int
	flowSum     float64 // Σ (CompletedAt − ArrivalTime), insertion order
	totalOutput int64
}

// NewSet returns an empty record set.
func NewSet() *Set {
	return &Set{seen: make(map[int]struct{})}
}

// RecordError reports a malformed completion record rejected by Add. It
// follows the library's *OptionError convention: callers branch on the
// offending field programmatically instead of parsing the message.
type RecordError struct {
	Seq    int    // the record's sequence position
	Field  string // offending Record field, e.g. "Seq" or "CompletedAt"
	Value  any    // the rejected value
	Reason string // why the value was rejected
}

// Error renders the conventional sla-prefixed message.
func (e *RecordError) Error() string {
	return fmt.Sprintf("sla: record seq %d: %s %v %s", e.Seq, e.Field, e.Value, e.Reason)
}

// Add records a completion. Malformed records — negative sequence,
// duplicate sequence (every queue slot completes exactly once), or a
// completion stamped before its arrival — are rejected with a typed
// *RecordError and leave the set unchanged.
func (s *Set) Add(r Record) error {
	if r.Seq < 0 {
		return &RecordError{Seq: r.Seq, Field: "Seq", Value: r.Seq, Reason: "must not be negative"}
	}
	if _, dup := s.seen[r.Seq]; dup {
		return &RecordError{Seq: r.Seq, Field: "Seq", Value: r.Seq, Reason: "already completed (duplicate sequence)"}
	}
	if r.CompletedAt < r.ArrivalTime {
		return &RecordError{Seq: r.Seq, Field: "CompletedAt", Value: r.CompletedAt,
			Reason: fmt.Sprintf("precedes arrival %v", r.ArrivalTime)}
	}
	if len(s.records) == 0 || r.ArrivalTime < s.minArrival {
		s.minArrival = r.ArrivalTime
	}
	if len(s.records) == 0 || r.CompletedAt > s.maxDone {
		s.maxDone = r.CompletedAt
	}
	if r.Where == EC {
		s.ecCount++
	}
	s.flowSum += r.CompletedAt - r.ArrivalTime
	s.totalOutput += r.OutputSize
	s.records = append(s.records, r)
	s.seen[r.Seq] = struct{}{}
	s.dirty = true
	return nil
}

// MustAdd is Add for callers whose records are correct by construction (the
// engine's result queue): a malformed record is a bug, so it panics.
func (s *Set) MustAdd(r Record) {
	if err := s.Add(r); err != nil {
		panic(err.Error())
	}
}

// Len returns the number of records.
func (s *Set) Len() int { return len(s.records) }

// sortedRecords returns the records ordered by Seq, rebuilding the cache
// only after a mutation. The returned slice is shared — callers must not
// modify it (Records hands out copies).
func (s *Set) sortedRecords() []Record {
	if s.dirty || (s.sorted == nil && len(s.records) > 0) {
		s.sorted = append(s.sorted[:0], s.records...)
		// Seqs are unique (Add rejects duplicates), so the unstable sort is
		// fully determined; SortFunc avoids sort.Slice's reflect.Swapper
		// allocations, keeping warm refills allocation-free.
		slices.SortFunc(s.sorted, func(a, b Record) int { return cmp.Compare(a.Seq, b.Seq) })
		s.dirty = false
	}
	return s.sorted
}

// Records returns a copy of the records sorted by Seq.
func (s *Set) Records() []Record {
	return append([]Record(nil), s.sortedRecords()...)
}

// LastCompletion returns the latest CompletedAt, or 0 for an empty set.
func (s *Set) LastCompletion() float64 { return s.maxDone }

// Makespan is eq. (7): the latest completion minus the earliest arrival.
func (s *Set) Makespan() float64 {
	if len(s.records) == 0 {
		return 0
	}
	return s.maxDone - s.minArrival
}

// Speedup is eq. (10) with the ratio oriented so that bigger is better:
// sequential standard-machine time divided by the cloud-bursting makespan.
// (The paper's printed formula is inverted relative to its own prose
// "speedup measures how fast the jobs completed"; we follow the prose.)
func (s *Set) Speedup(tseq float64) float64 {
	c := s.Makespan()
	if c <= 0 || tseq <= 0 {
		return 0
	}
	return tseq / c
}

// BurstRatio is eq. (12): the fraction of jobs processed in the EC.
func (s *Set) BurstRatio() float64 {
	if len(s.records) == 0 {
		return 0
	}
	return float64(s.ecCount) / float64(len(s.records))
}

// BatchBurstRatios is eq. (11): the burst ratio of each arrival batch.
func (s *Set) BatchBurstRatios() map[int]float64 {
	total := make(map[int]int)
	burst := make(map[int]int)
	for _, r := range s.records {
		total[r.BatchID]++
		if r.Where == EC {
			burst[r.BatchID]++
		}
	}
	out := make(map[int]float64, len(total))
	for b, n := range total {
		out[b] = float64(burst[b]) / float64(n)
	}
	return out
}

// MeanFlowTime returns the average completion−arrival time (a secondary
// responsiveness metric used in the ablation benches).
func (s *Set) MeanFlowTime() float64 {
	if len(s.records) == 0 {
		return 0
	}
	return s.flowSum / float64(len(s.records))
}

// Reset empties the set while retaining its backing storage (record slices,
// map buckets), so a pooled set can be reused across runs without
// reallocating. After Reset the set is semantically identical to NewSet().
func (s *Set) Reset() {
	s.records = s.records[:0]
	clear(s.seen)
	s.sorted = s.sorted[:0]
	s.dirty = false
	s.minArrival = 0
	s.maxDone = 0
	s.ecCount = 0
	s.flowSum = 0
	s.totalOutput = 0
}
