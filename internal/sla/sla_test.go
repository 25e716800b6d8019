package sla

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"cloudburst/internal/stats"
)

// rec builds a record quickly: seq, arrival, completed, output bytes, where.
func rec(seq int, arr, done float64, out int64, w Where) Record {
	return Record{Seq: seq, JobID: seq, BatchID: 0, OutputSize: out,
		ArrivalTime: arr, CompletedAt: done, Where: w}
}

func TestMakespan(t *testing.T) {
	s := NewSet()
	if s.Makespan() != 0 {
		t.Fatal("empty set makespan should be 0")
	}
	s.Add(rec(0, 10, 50, 1, IC))
	s.Add(rec(1, 5, 40, 1, IC))
	s.Add(rec(2, 20, 90, 1, EC))
	if s.Makespan() != 85 { // 90 - 5
		t.Fatalf("Makespan = %v, want 85", s.Makespan())
	}
}

func TestSpeedupOrientation(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 100, 1, IC))
	if got := s.Speedup(600); got != 6 {
		t.Fatalf("Speedup = %v, want 6 (bigger is better)", got)
	}
	empty := NewSet()
	if empty.Speedup(600) != 0 {
		t.Fatal("empty set speedup should be 0")
	}
}

func TestBurstRatio(t *testing.T) {
	s := NewSet()
	if s.BurstRatio() != 0 {
		t.Fatal("empty burst ratio should be 0")
	}
	s.Add(rec(0, 0, 1, 1, IC))
	s.Add(rec(1, 0, 2, 1, EC))
	s.Add(rec(2, 0, 3, 1, IC))
	s.Add(rec(3, 0, 4, 1, EC))
	if s.BurstRatio() != 0.5 {
		t.Fatalf("BurstRatio = %v", s.BurstRatio())
	}
}

func TestBatchBurstRatios(t *testing.T) {
	s := NewSet()
	a := rec(0, 0, 1, 1, EC)
	a.BatchID = 0
	b := rec(1, 0, 2, 1, IC)
	b.BatchID = 0
	c := rec(2, 0, 3, 1, IC)
	c.BatchID = 1
	s.Add(a)
	s.Add(b)
	s.Add(c)
	r := s.BatchBurstRatios()
	if r[0] != 0.5 || r[1] != 0 {
		t.Fatalf("BatchBurstRatios = %v", r)
	}
}

func TestAddValidation(t *testing.T) {
	s := NewSet()
	if err := s.Add(rec(0, 0, 1, 1, IC)); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := []struct {
		r     Record
		field string
	}{
		{rec(0, 0, 2, 1, IC), "Seq"},          // duplicate seq
		{rec(-1, 0, 1, 1, IC), "Seq"},         // negative seq
		{rec(5, 10, 5, 1, IC), "CompletedAt"}, // completes before arrival
	}
	for _, c := range cases {
		err := s.Add(c.r)
		if err == nil {
			t.Fatalf("invalid record %+v accepted", c.r)
		}
		var re *RecordError
		if !errors.As(err, &re) {
			t.Fatalf("error %v is not a *RecordError", err)
		}
		if re.Field != c.field {
			t.Fatalf("RecordError.Field = %q, want %q (%v)", re.Field, c.field, err)
		}
		if re.Error() == "" || re.Error()[:4] != "sla:" {
			t.Fatalf("error message %q lacks sla: prefix", re.Error())
		}
	}
	// Rejected records must leave the set unchanged.
	if s.Len() != 1 {
		t.Fatalf("Len = %d after rejected adds, want 1", s.Len())
	}
}

func TestMustAddPanicsOnInvalid(t *testing.T) {
	s := NewSet()
	s.MustAdd(rec(0, 0, 1, 1, IC))
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd on a duplicate seq did not panic")
		}
	}()
	s.MustAdd(rec(0, 0, 2, 1, IC))
}

func TestRecordsSortedBySeq(t *testing.T) {
	s := NewSet()
	s.Add(rec(2, 0, 3, 1, IC))
	s.Add(rec(0, 0, 1, 1, IC))
	s.Add(rec(1, 0, 2, 1, IC))
	r := s.Records()
	for i := range r {
		if r[i].Seq != i {
			t.Fatalf("Records not sorted: %v", r)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestMeanFlowTime(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 10, 1, IC))
	s.Add(rec(1, 5, 25, 1, IC))
	if got := s.MeanFlowTime(); got != 15 {
		t.Fatalf("MeanFlowTime = %v", got)
	}
	if NewSet().MeanFlowTime() != 0 {
		t.Fatal("empty flow time should be 0")
	}
}

func TestWhereString(t *testing.T) {
	if IC.String() != "IC" || EC.String() != "EC" {
		t.Fatal("Where names wrong")
	}
}

// --- OO metric ---

func TestOOAtStrictOrder(t *testing.T) {
	s := NewSet()
	// Completions: seq0@10, seq1@30, seq2@20 (out of order), sizes 100 each.
	s.Add(rec(0, 0, 10, 100, IC))
	s.Add(rec(1, 0, 30, 100, IC))
	s.Add(rec(2, 0, 20, 100, EC))
	// t=15: only seq0 done -> m=0, o=100.
	if m, o := s.OOAt(15, 0); m != 0 || o != 100 {
		t.Fatalf("OOAt(15) = %d,%d want 0,100", m, o)
	}
	// t=25: seq0 and seq2 done but seq1 missing -> strict order stops at 0.
	if m, o := s.OOAt(25, 0); m != 0 || o != 100 {
		t.Fatalf("OOAt(25) = %d,%d want 0,100", m, o)
	}
	// t=35: all done -> m=2, o=300.
	if m, o := s.OOAt(35, 0); m != 2 || o != 300 {
		t.Fatalf("OOAt(35) = %d,%d want 2,300", m, o)
	}
	// t=5: nothing done.
	if m, o := s.OOAt(5, 0); m != -1 || o != 0 {
		t.Fatalf("OOAt(5) = %d,%d want -1,0", m, o)
	}
}

func TestOOAtWithTolerance(t *testing.T) {
	s := NewSet()
	// seq1 and seq2 done, seq0 missing.
	s.Add(rec(0, 0, 100, 10, IC))
	s.Add(rec(1, 0, 5, 10, IC))
	s.Add(rec(2, 0, 6, 10, IC))
	// Strict: nothing consumable at t=10.
	if m, _ := s.OOAt(10, 0); m != -1 {
		t.Fatalf("strict m = %d, want -1", m)
	}
	// tol=1: one missing job allowed. seq1: (2)-1=1 ≤ 1 completed ✓;
	// seq2: (3)-1=2 ≤ 2 completed ✓ -> m=2, o=20 (seq0 not counted: not done).
	if m, o := s.OOAt(10, 1); m != 2 || o != 20 {
		t.Fatalf("tol=1: m,o = %d,%d want 2,20", m, o)
	}
}

func TestOOAtToleranceMonotone(t *testing.T) {
	s := NewSet()
	// Alternating completion pattern.
	times := []float64{50, 10, 60, 20, 70, 30}
	for i, at := range times {
		s.Add(rec(i, 0, at, 10, IC))
	}
	for _, at := range []float64{15, 25, 35, 55, 65, 75} {
		prev := int64(-1)
		for tol := 0; tol <= 4; tol++ {
			_, o := s.OOAt(at, tol)
			if o < prev {
				t.Fatalf("o_t not monotone in tolerance at t=%v tol=%d: %d < %d", at, tol, o, prev)
			}
			prev = o
		}
	}
}

func TestOOAtNegativeTolerancePanics(t *testing.T) {
	s := NewSet()
	defer func() {
		if recover() == nil {
			t.Fatal("negative tolerance did not panic")
		}
	}()
	s.OOAt(0, -1)
}

func TestOOSeries(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 100, 10, IC))
	s.Add(rec(1, 0, 250, 20, IC))
	ts := s.OOSeries(120, 0, "oo")
	if ts.Len() < 3 {
		t.Fatalf("series too short: %d", ts.Len())
	}
	// Must be non-decreasing over time.
	prev := -1.0
	for _, p := range ts.Points {
		if p.V < prev {
			t.Fatalf("OO series decreased: %v", ts.Points)
		}
		prev = p.V
	}
	if ts.Last().V != 30 {
		t.Fatalf("final OO = %v, want 30 (all output)", ts.Last().V)
	}
	if NewSet().OOSeries(60, 0, "x").Len() != 0 {
		t.Fatal("empty set OO series should be empty")
	}
}

func TestOOSeriesBadIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad interval did not panic")
		}
	}()
	NewSet().OOSeries(0, 0, "x")
}

func TestInOrderWaitSeries(t *testing.T) {
	s := NewSet()
	// seq completions: 10, 40, 20, 50.
	s.Add(rec(0, 0, 10, 1, IC))
	s.Add(rec(1, 0, 40, 1, IC))
	s.Add(rec(2, 0, 20, 1, IC))
	s.Add(rec(3, 0, 50, 1, IC))
	ts := s.InOrderWaitSeries("w")
	// wait_1 = 40-10 = 30 (peak); wait_2 = 20-40 = -20 (valley);
	// wait_3 = 50-40 = 10 (peak).
	want := []float64{30, -20, 10}
	if ts.Len() != 3 {
		t.Fatalf("series = %v", ts.Points)
	}
	for i, w := range want {
		if math.Abs(ts.Points[i].V-w) > 1e-9 {
			t.Fatalf("wait[%d] = %v, want %v", i, ts.Points[i].V, w)
		}
	}
}

func TestPeakStatsAndValleys(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 10, 1, IC))
	s.Add(rec(1, 0, 40, 1, IC)) // +30
	s.Add(rec(2, 0, 20, 1, IC)) // -20
	s.Add(rec(3, 0, 50, 1, IC)) // +10
	count, total, maxPeak := s.PeakStats()
	if count != 2 || total != 40 || maxPeak != 30 {
		t.Fatalf("PeakStats = %d,%v,%v", count, total, maxPeak)
	}
	if s.ValleyCount() != 1 {
		t.Fatalf("ValleyCount = %d", s.ValleyCount())
	}
}

func TestCompletionSeries(t *testing.T) {
	s := NewSet()
	s.Add(rec(1, 0, 20, 1, IC))
	s.Add(rec(0, 0, 10, 1, IC))
	ts := s.CompletionSeries("c")
	if ts.Points[0].T != 0 || ts.Points[0].V != 10 || ts.Points[1].V != 20 {
		t.Fatalf("CompletionSeries = %v", ts.Points)
	}
}

func TestOrderedFraction(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 10, 30, IC))
	s.Add(rec(1, 0, 100, 70, IC))
	if f := s.OrderedFractionAt(50, 0); math.Abs(f-0.3) > 1e-9 {
		t.Fatalf("OrderedFractionAt = %v, want 0.3", f)
	}
	if f := s.OrderedFractionAt(200, 0); f != 1 {
		t.Fatalf("final fraction = %v", f)
	}
	if NewSet().OrderedFractionAt(10, 0) != 0 {
		t.Fatal("empty fraction should be 0")
	}
}

func TestEmptySetEdge(t *testing.T) {
	s := NewSet()
	if m, o := s.OOAt(100, 0); m != -1 || o != 0 {
		t.Fatal("empty OOAt wrong")
	}
	if s.InOrderWaitSeries("w").Len() != 0 {
		t.Fatal("empty wait series should be empty")
	}
	c, tw, mp := s.PeakStats()
	if c != 0 || tw != 0 || mp != 0 {
		t.Fatal("empty PeakStats wrong")
	}
}

func TestSingleRecordSeries(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 10, 1, IC))
	if s.InOrderWaitSeries("w").Len() != 0 {
		t.Fatal("single record has no waits")
	}
	if s.ValleyCount() != 0 {
		t.Fatal("single record has no valleys")
	}
}

func TestSpeedupNonPositiveTSeq(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 100, 1, IC))
	if got := s.Speedup(0); got != 0 {
		t.Fatalf("Speedup(0) = %v, want 0", got)
	}
	if got := s.Speedup(-50); got != 0 {
		t.Fatalf("Speedup(-50) = %v, want 0", got)
	}
}

func TestOOAtExactToleranceBoundary(t *testing.T) {
	// With tol=1 and seq0 still missing, seq1 sits exactly on the boundary
	// (seq+1)−tol == completedUpTo: (1+1)−1 = 1 == 1 completed. The ≤
	// constraint must admit it.
	s := NewSet()
	s.Add(rec(0, 0, 100, 10, IC)) // completes late
	s.Add(rec(1, 0, 5, 10, IC))
	if m, o := s.OOAt(10, 1); m != 1 || o != 10 {
		t.Fatalf("boundary OOAt = %d,%d want 1,10", m, o)
	}
	// One notch past the boundary must not be consumable: seq1 with tol=0
	// gives (1+1)−0 = 2 > 1 completed.
	if m, _ := s.OOAt(10, 0); m != -1 {
		t.Fatalf("past-boundary m = %d, want -1", m)
	}
}

func TestBatchBurstRatiosNeverBursting(t *testing.T) {
	s := NewSet()
	a := rec(0, 0, 1, 1, IC)
	b := rec(1, 0, 2, 1, IC)
	b.BatchID = 0
	c := rec(2, 0, 3, 1, EC)
	c.BatchID = 1
	s.Add(a)
	s.Add(b)
	s.Add(c)
	r := s.BatchBurstRatios()
	if got, ok := r[0]; !ok || got != 0 {
		t.Fatalf("never-bursting batch ratio = %v (present=%v), want exactly 0", got, ok)
	}
	if r[1] != 1 {
		t.Fatalf("batch 1 ratio = %v, want 1", r[1])
	}
}

// TestResetReuseAllocFree pins the pooling contract: Reset keeps the record
// slice, the dedup map's buckets and the sorted cache, so refilling a warm
// set — the per-run cost when an arena recycles across sweep cells — is
// allocation-free.
func TestResetReuseAllocFree(t *testing.T) {
	s := NewSet()
	fill := func() {
		s.Reset()
		for i := 0; i < 128; i++ {
			if err := s.Add(rec(i, float64(i), float64(100+i), 10, IC)); err != nil {
				t.Fatal(err)
			}
		}
		s.OOAt(200, 2)
	}
	fill() // warm: size the slices and map buckets
	allocs := testing.AllocsPerRun(50, fill)
	if allocs != 0 {
		t.Fatalf("warm Reset+refill cycle allocates %v objects, want 0", allocs)
	}
}

// TestOOAtAllocFree pins the satellite fix: OOAt must reuse the sorted cache
// rather than re-copying and re-sorting the record set per evaluation, so a
// warm evaluation performs zero allocations. OOSeries calls OOAt once per
// grid point, so any per-call allocation regresses the whole series.
func TestOOAtAllocFree(t *testing.T) {
	s := NewSet()
	for i := 0; i < 256; i++ {
		s.Add(rec(i, 0, float64(100+((i*37)%256)), 10, IC))
	}
	s.OOAt(200, 2) // warm the sorted cache
	allocs := testing.AllocsPerRun(50, func() {
		s.OOAt(200, 2)
	})
	if allocs != 0 {
		t.Fatalf("OOAt allocates %v objects per call after warm-up, want 0", allocs)
	}
}

// oracleWaitSeries, oraclePeakStats and oracleValleyCount are the
// series-based implementations PeakStats and ValleyCount replaced, kept to
// pin the allocation-free walk to them bit for bit.
func oracleWaitSeries(s *Set) *stats.TimeSeries {
	recs := s.Records()
	ts := &stats.TimeSeries{Name: "w"}
	if len(recs) == 0 {
		return ts
	}
	maxSoFar := recs[0].CompletedAt
	for i := 1; i < len(recs); i++ {
		ts.Append(float64(recs[i].Seq), recs[i].CompletedAt-maxSoFar)
		if recs[i].CompletedAt > maxSoFar {
			maxSoFar = recs[i].CompletedAt
		}
	}
	return ts
}

func oraclePeakStats(s *Set) (count int, totalWait float64, maxPeak float64) {
	for _, p := range oracleWaitSeries(s).Points {
		if p.V > 0 {
			count++
			totalWait += p.V
			if p.V > maxPeak {
				maxPeak = p.V
			}
		}
	}
	return count, totalWait, maxPeak
}

func oracleValleyCount(s *Set) int {
	n := 0
	for _, p := range oracleWaitSeries(s).Points {
		if p.V < 0 {
			n++
		}
	}
	return n
}

// TestPeakStatsMatchSeriesOracle draws record sets of every size from 0 to
// 200, inserted out of order, with completion times that are sometimes
// tied, and requires the summaries and the wait series to match the
// oracles bit for bit. Once the sorted view is cached, the summaries must
// not allocate.
func TestPeakStatsMatchSeriesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	bits := math.Float64bits
	for n := 0; n <= 200; n++ {
		s := NewSet()
		for _, seq := range rng.Perm(n) {
			arr := rng.Float64() * 1000
			done := arr + rng.ExpFloat64()*300
			if rng.Intn(4) == 0 {
				done = math.Ceil(done/50) * 50 // ties
			}
			s.MustAdd(rec(seq, arr, done, 1, IC))
		}
		c, tw, mp := s.PeakStats()
		oc, otw, omp := oraclePeakStats(s)
		if c != oc || bits(tw) != bits(otw) || bits(mp) != bits(omp) {
			t.Fatalf("n=%d: PeakStats = %d,%v,%v, oracle %d,%v,%v", n, c, tw, mp, oc, otw, omp)
		}
		if v, ov := s.ValleyCount(), oracleValleyCount(s); v != ov {
			t.Fatalf("n=%d: ValleyCount = %d, oracle %d", n, v, ov)
		}
		got, want := s.InOrderWaitSeries("w").Points, oracleWaitSeries(s).Points
		if len(got) != len(want) {
			t.Fatalf("n=%d: wait series has %d points, oracle %d", n, len(got), len(want))
		}
		for i := range got {
			if bits(got[i].T) != bits(want[i].T) || bits(got[i].V) != bits(want[i].V) {
				t.Fatalf("n=%d: wait point %d = %v, oracle %v", n, i, got[i], want[i])
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { s.PeakStats(); s.ValleyCount() }); allocs != 0 {
			t.Fatalf("n=%d: PeakStats+ValleyCount made %v allocations, want 0", n, allocs)
		}
	}
}

func TestLastCompletion(t *testing.T) {
	s := NewSet()
	if s.LastCompletion() != 0 {
		t.Fatal("empty set should report 0")
	}
	s.MustAdd(rec(1, 0, 70, 1, IC))
	s.MustAdd(rec(0, 0, 90, 1, EC))
	s.MustAdd(rec(2, 0, 80, 1, IC))
	if s.LastCompletion() != 90 {
		t.Fatalf("LastCompletion = %v, want 90", s.LastCompletion())
	}
}
