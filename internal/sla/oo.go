package sla

import (
	"fmt"

	"cloudburst/internal/stats"
)

// OOAt evaluates equations (3)–(6) at sampling time t: given the completed
// records, it returns the maximum sequence position m_t up to which results
// can be consumed in order within tolerance tol, and the cumulative output
// bytes o_t of completed jobs at or below m_t.
//
// Sequence positions are 0-based; with the paper's 1-based ids the
// constraint i − t_l ≤ |J_it| becomes (seq+1) − tol ≤ completedUpTo(seq).
// tol = 0 demands strict order; m_t = −1 means nothing is consumable.
func (s *Set) OOAt(t float64, tol int) (mt int, ot int64) {
	if tol < 0 {
		panic(fmt.Sprintf("sla: negative tolerance %d", tol))
	}
	recs := s.sortedRecords() // sorted by Seq; shared cache, read-only
	mt = -1
	completedUpTo := 0 // |J_it|: completed records with Seq ≤ current
	// Walk in Seq order, counting completions; a record completed by t at
	// position seq satisfies the constraint when (seq+1)−tol ≤ count.
	for _, r := range recs {
		if r.CompletedAt <= t {
			completedUpTo++
			if (r.Seq+1)-tol <= completedUpTo {
				if r.Seq > mt {
					mt = r.Seq
				}
			}
		}
	}
	if mt < 0 {
		return -1, 0
	}
	for _, r := range recs {
		if r.Seq <= mt && r.CompletedAt <= t {
			ot += r.OutputSize
		}
	}
	return mt, ot
}

// OOSeries samples the OO metric (o_t, in bytes) on a regular grid from the
// earliest arrival to the makespan end — the paper samples every 2 minutes.
func (s *Set) OOSeries(interval float64, tol int, name string) *stats.TimeSeries {
	if interval <= 0 {
		panic("sla: OO sampling interval must be positive")
	}
	ts := &stats.TimeSeries{Name: name}
	if len(s.records) == 0 {
		return ts
	}
	start, end := s.minArrival, s.maxDone
	for t := start; t <= end+interval; t += interval {
		_, ot := s.OOAt(t, tol)
		ts.Append(t, float64(ot))
	}
	return ts
}

// InOrderWaitSeries returns, for each sequence position i ≥ 1, the signed
// wait the in-order consumer experiences for job i:
//
//	wait_i = t_c(i) − max_{k<i} t_c(k)
//
// A positive value (peak) means job i arrived after everything before it
// was already done — downstream stalls for that long. A negative value
// (valley) means the output was ready early. This is the quantity plotted
// per job in the paper's Figs. 7–8.
func (s *Set) InOrderWaitSeries(name string) *stats.TimeSeries {
	ts := &stats.TimeSeries{Name: name}
	s.inOrderWaits(func(seq int, w float64) { ts.Append(float64(seq), w) })
	return ts
}

// CompletionSeries returns completion time by sequence position.
func (s *Set) CompletionSeries(name string) *stats.TimeSeries {
	recs := s.sortedRecords()
	ts := &stats.TimeSeries{Name: name}
	for _, r := range recs {
		ts.Append(float64(r.Seq), r.CompletedAt)
	}
	return ts
}

// PeakStats summarizes the positive in-order waits (peaks): their count and
// total stall seconds. The paper reads Figs. 7–8 through exactly this lens —
// "more the number of high peaks, more is the wait period".
func (s *Set) PeakStats() (count int, totalWait float64, maxPeak float64) {
	s.inOrderWaits(func(_ int, w float64) {
		if w > 0 {
			count++
			totalWait += w
			if w > maxPeak {
				maxPeak = w
			}
		}
	})
	return count, totalWait, maxPeak
}

// ValleyCount counts the strictly negative in-order waits (outputs ready
// before needed).
func (s *Set) ValleyCount() int {
	n := 0
	s.inOrderWaits(func(_ int, w float64) {
		if w < 0 {
			n++
		}
	})
	return n
}

// inOrderWaits walks the records in Seq order and calls fn with each
// position i ≥ 1 and its in-order wait (see InOrderWaitSeries). It builds
// nothing, so the summaries above allocate nothing.
func (s *Set) inOrderWaits(fn func(seq int, w float64)) {
	recs := s.sortedRecords()
	if len(recs) == 0 {
		return
	}
	maxSoFar := recs[0].CompletedAt
	for i := 1; i < len(recs); i++ {
		fn(recs[i].Seq, recs[i].CompletedAt-maxSoFar)
		if recs[i].CompletedAt > maxSoFar {
			maxSoFar = recs[i].CompletedAt
		}
	}
}

// OrderedFractionAt returns the fraction of total output bytes consumable
// in order at time t with the given tolerance — a normalized OO metric for
// cross-run comparison.
func (s *Set) OrderedFractionAt(t float64, tol int) float64 {
	if s.totalOutput == 0 {
		return 0
	}
	_, ot := s.OOAt(t, tol)
	return float64(ot) / float64(s.totalOutput)
}
