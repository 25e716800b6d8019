package cloudburst

// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, via the internal experiment drivers), plus
// microbenchmarks of the core machinery and ablation benches for the
// design choices called out in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure/table benches report the wall cost of regenerating the artifact;
// their outputs are printed once under -v via the experiments binary.

import (
	"context"
	"testing"
	"time"

	"cloudburst/internal/engine"
	"cloudburst/internal/experiments"
	"cloudburst/internal/netsim"
	"cloudburst/internal/qrsm"
	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
	"cloudburst/internal/workload"
)

// benchSeed keeps benchmark inputs fixed across iterations.
const benchSeed = 1

func benchTable(b *testing.B, f func(int64) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := f(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- One benchmark per paper artifact ---

func BenchmarkFigure3QRSM(b *testing.B)       { benchTable(b, experiments.Figure3QRSM) }
func BenchmarkFigure4aTimeOfDay(b *testing.B) { benchTable(b, experiments.Figure4aTimeOfDay) }
func BenchmarkFigure4bThreads(b *testing.B)   { benchTable(b, experiments.Figure4bThreads) }
func BenchmarkFigure6Makespan(b *testing.B)   { benchTable(b, experiments.Figure6Makespan) }
func BenchmarkFigure7Completions(b *testing.B) {
	benchTable(b, experiments.Figure7Completions)
}
func BenchmarkFigure8LargeCompletions(b *testing.B) {
	benchTable(b, experiments.Figure8LargeCompletions)
}
func BenchmarkFigure9OOMetric(b *testing.B)    { benchTable(b, experiments.Figure9OOMetric) }
func BenchmarkFigure10RelativeOO(b *testing.B) { benchTable(b, experiments.Figure10RelativeOO) }

func BenchmarkTable1Metrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := experiments.Table1Metrics(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(ts) != 2 {
			b.Fatal("want two Table I buckets")
		}
	}
}

func BenchmarkSIBSOptimization(b *testing.B) { benchTable(b, experiments.SIBSOptimization) }

// --- Ablation benches (design choices from DESIGN.md §5) ---

func BenchmarkAblationChunking(b *testing.B)    { benchTable(b, experiments.AblationChunking) }
func BenchmarkAblationSlackMargin(b *testing.B) { benchTable(b, experiments.AblationSlackMargin) }
func BenchmarkAblationGreedyTracking(b *testing.B) {
	benchTable(b, experiments.AblationGreedyTracking)
}
func BenchmarkAblationRescheduling(b *testing.B) {
	benchTable(b, experiments.AblationRescheduling)
}
func BenchmarkAblationQRSMNoise(b *testing.B) { benchTable(b, experiments.AblationQRSMNoise) }
func BenchmarkAblationEWMAAlpha(b *testing.B) { benchTable(b, experiments.AblationEWMAAlpha) }
func BenchmarkAblationSIBSGate(b *testing.B)  { benchTable(b, experiments.AblationSIBSGate) }

// --- End-to-end run benches per scheduler ---

func benchRun(b *testing.B, s SchedulerName, bucket BucketName) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := Run(Options{
			Scheduler:    s,
			Bucket:       bucket,
			WorkloadSeed: benchSeed,
			NetSeed:      benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Jobs == 0 {
			b.Fatal("empty run")
		}
	}
}

func BenchmarkRunICOnly(b *testing.B)  { benchRun(b, ICOnly, Uniform) }
func BenchmarkRunGreedy(b *testing.B)  { benchRun(b, Greedy, Uniform) }
func BenchmarkRunOp(b *testing.B)      { benchRun(b, OrderPreserving, Uniform) }
func BenchmarkRunSIBS(b *testing.B)    { benchRun(b, SIBS, Uniform) }
func BenchmarkRunOpLarge(b *testing.B) { benchRun(b, OrderPreserving, Large) }

// BenchmarkShardedPlacement measures the optimistic commit loop on the
// acceptance-scale cell: a 2000-machine cluster, 4 shards, and enough EC
// demand that the commit phase arbitrates real collisions. Beyond the
// standard columns it reports placement throughput and the conflict rate,
// so a regression in either shard scheduling or the arbitration shows up
// in BENCH.json.
func BenchmarkShardedPlacement(b *testing.B) {
	o := Options{
		Scheduler:        Greedy,
		Bucket:           Uniform,
		Batches:          2,
		MeanJobsPerBatch: 2600,
		BatchIntervalSec: 30,
		ICMachines:       4,
		ECMachines:       1996,
		UploadMeanBW:     512 << 20,
		DownloadMeanBW:   512 << 20,
		WorkloadSeed:     benchSeed,
		NetSeed:          benchSeed,
		Shards:           &ShardOptions{Count: 4},
	}
	var jobs, conflicts int
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		r, err := Run(o)
		if err != nil {
			b.Fatal(err)
		}
		if r.Conflicts == 0 {
			b.Fatal("sharded bench cell produced no conflicts")
		}
		jobs += r.Jobs
		conflicts += r.Conflicts
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(jobs)/elapsed, "placements/sec")
	}
	b.ReportMetric(float64(conflicts)/float64(jobs), "conflicts/placement")
}

// --- Core machinery microbenches ---

func BenchmarkSimEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < 10000 {
				eng.ScheduleAfter(1, tick)
			}
		}
		eng.ScheduleAfter(1, tick)
		eng.Run()
	}
}

func BenchmarkQRSMFit(b *testing.B) {
	fs, ys := workload.BootstrapSet(benchSeed, 300, 0.12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := qrsm.NewEstimator()
		est.Bootstrap(fs, ys)
		if !est.GlobalModel().Fitted() {
			b.Fatal("fit failed")
		}
	}
}

func BenchmarkQRSMPredict(b *testing.B) {
	fs, ys := workload.BootstrapSet(benchSeed, 300, 0.12)
	est := qrsm.NewEstimator()
	est.Bootstrap(fs, ys)
	f := fs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if est.Estimate(f) <= 0 {
			b.Fatal("bad estimate")
		}
	}
}

// BenchmarkQRSMRefitGrowing grows one QRSM to 2000 samples, requesting a
// refit and consulting the model every 25 observations — the life of a
// streaming service's per-class model, whose window grows with history.
// It exercises the fit path's column assembly, blocked factorization and
// amortized workspace growth.
func BenchmarkQRSMRefitGrowing(b *testing.B) {
	fs, ys := workload.BootstrapSet(benchSeed, 2000, 0.12)
	xs := make([][]float64, len(fs))
	for i, f := range fs {
		xs[i] = f.Vector()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := qrsm.New(len(xs[0]))
		for j, x := range xs {
			m.Observe(x, ys[j])
			if (j+1)%25 == 0 {
				m.RequestFit()
				m.PredictClamped(x, 1)
			}
		}
		if !m.Fitted() {
			b.Fatal("fit failed")
		}
	}
}

func BenchmarkLinkTransfers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		link := netsim.NewLink(eng, netsim.LinkConfig{
			Profile:  netsim.DiurnalProfile(600*1024, 0.3),
			JitterCV: 0.15,
		}, stats.NewRNG(benchSeed))
		done := 0
		for k := 0; k < 200; k++ {
			link.Start("t", 1<<20, 8, func(float64, *netsim.Transfer) { done++ })
		}
		eng.RunUntil(1e6)
		if done != 200 {
			b.Fatalf("done = %d", done)
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	g := workload.MustNewGenerator(workload.Config{Seed: benchSeed})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if workload.TotalJobs(g.Generate()) == 0 {
			b.Fatal("empty workload")
		}
	}
}

// drawSink keeps BenchmarkNewRNG's draws from being optimized away.
var drawSink float64

// BenchmarkNewRNG seeds a generator and takes 32 draws, about what each of
// a sweep cell's short-lived generators draws.
func BenchmarkNewRNG(b *testing.B) {
	sum := 0.0
	for i := 0; i < b.N; i++ {
		g := stats.NewRNG(int64(i))
		for k := 0; k < 32; k++ {
			sum += g.Float64()
		}
	}
	drawSink = sum
}

func BenchmarkOOMetric(b *testing.B) {
	r, err := Run(Options{Scheduler: Greedy, WorkloadSeed: benchSeed, NetSeed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.OOSeries()) == 0 {
			b.Fatal("empty series")
		}
	}
}

// --- Extension benches (the paper's future-work directions) ---

func BenchmarkExtensionAutoscale(b *testing.B) { benchTable(b, experiments.ExtensionAutoscale) }
func BenchmarkExtensionTickets(b *testing.B)   { benchTable(b, experiments.ExtensionTickets) }
func BenchmarkExtensionMultiEC(b *testing.B)   { benchTable(b, experiments.ExtensionMultiEC) }
func BenchmarkAblationOutages(b *testing.B)    { benchTable(b, experiments.AblationOutages) }

func BenchmarkRunMultiEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Run(Options{
			Scheduler:    OrderPreserving,
			WorkloadSeed: benchSeed,
			NetSeed:      benchSeed,
			ExtraECSites: []ECSiteSpec{{Machines: 2}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Jobs == 0 {
			b.Fatal("empty run")
		}
	}
}

func BenchmarkRunAutoscaled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Run(Options{
			Scheduler:      OrderPreserving,
			WorkloadSeed:   benchSeed,
			NetSeed:        benchSeed,
			ECMachines:     1,
			AutoscaleECMax: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.ECMachineSeconds <= 0 {
			b.Fatal("no rental accounting")
		}
	}
}

// --- Sweep throughput (the headline number) ---

// sweepCellsSpec is a 3 schedulers × 3 buckets × 4 seeds grid — 36
// distinct cells, nothing dedupable — of short scenario runs (3 batches,
// ~6 jobs each). Short cells are the regime the scenario-sweep and
// metamorphic suites live in, where per-cell setup (bootstrap refit, RNG
// seeding, graph construction) dominates the simulated work; that setup is
// exactly what arena pooling amortizes away. Longer paper-testbed cells
// are covered by the BenchmarkRun* and table benches.
func sweepCellsSpec() SweepSpec {
	return SweepSpec{
		Schedulers:       []string{string(Greedy), string(OrderPreserving), string(SIBS)},
		Buckets:          []string{string(Small), string(Uniform), string(Large)},
		SeedCount:        4,
		BaseSeed:         benchSeed,
		Batches:          3,
		MeanJobsPerBatch: 6,
	}
}

func benchSweepCells(b *testing.B, pooled bool) {
	b.Helper()
	prev := engine.SetArenaPooling(pooled)
	defer engine.SetArenaPooling(prev)
	spec := sweepCellsSpec()
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := Sweep(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != 36 {
			b.Fatalf("cells = %d, want 36", len(rs))
		}
		cells += len(rs)
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkSweepCells measures sweep throughput in cells/sec over the full
// concurrent sweep engine with arena pooling on (the default): every cell
// reuses a pooled simulation arena and a cloned bootstrap prototype.
func BenchmarkSweepCells(b *testing.B) { benchSweepCells(b, true) }

// BenchmarkSweepCellsNoReuse runs the identical grid with arena pooling
// and the bootstrap prototype cache disabled — the no-reuse baseline the
// arena speedup is measured against. Results are bit-identical to
// BenchmarkSweepCells; only the allocation story differs.
func BenchmarkSweepCellsNoReuse(b *testing.B) { benchSweepCells(b, false) }

// BenchmarkStreamingWindow serves one virtual hour of diurnal arrivals with
// six rolling windows — the cost of a streamed slice of service time,
// window bookkeeping and report delivery included.
func BenchmarkStreamingWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc, err := Serve(context.Background(), ServiceOptions{
			Options: Options{
				Scheduler:    OrderPreserving,
				WorkloadSeed: benchSeed,
				NetSeed:      benchSeed,
			},
			DurationSec: 3600,
			WindowSec:   600,
		})
		if err != nil {
			b.Fatal(err)
		}
		windows := 0
		for range svc.Reports() {
			windows++
		}
		rep, err := svc.Wait()
		if err != nil {
			b.Fatal(err)
		}
		if windows == 0 || rep.Fed == 0 {
			b.Fatalf("empty service: %d windows, %d fed", windows, rep.Fed)
		}
	}
}

// BenchmarkServeSteadyState measures the streaming service's steady-state
// cost — six virtual hours of diurnal arrivals under rolling ten-minute
// windows, long enough that startup (bootstrap, first fits) amortizes away
// and the per-window bookkeeping dominates.
func BenchmarkServeSteadyState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc, err := Serve(context.Background(), ServiceOptions{
			Options: Options{
				Scheduler:    OrderPreserving,
				WorkloadSeed: benchSeed,
				NetSeed:      benchSeed,
			},
			DurationSec: 6 * 3600,
			WindowSec:   600,
		})
		if err != nil {
			b.Fatal(err)
		}
		windows := 0
		for range svc.Reports() {
			windows++
		}
		rep, err := svc.Wait()
		if err != nil {
			b.Fatal(err)
		}
		if windows < 30 || rep.Fed == 0 {
			b.Fatalf("short service: %d windows, %d fed", windows, rep.Fed)
		}
	}
}
