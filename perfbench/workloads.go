package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"syscall"

	cb "cloudburst"
	"cloudburst/internal/job"
	"cloudburst/internal/workload"
)

// work is what one operation simulates. It is fixed by the operation's
// inputs, so the set-up pass records it once and every later execution
// must reproduce the same digest.
type work struct {
	Digest string  `json:"digest"`
	Jobs   int     `json:"jobs"`    // original jobs simulated
	Cells  int     `json:"cells"`   // independent simulated runs: sweep cells, or 1
	SimSec float64 `json:"sim_sec"` // virtual seconds simulated
}

// outcome is one execution of an operation.
type outcome struct {
	work
	// steps holds the CPU ms of each served metric window of a Serve;
	// nil for operations that are their own step.
	steps []float64
	// windows counts every WindowReport a Serve delivered.
	windows int
	// Sharded-placement and sweep bookkeeping from the public results.
	conflicts, replacements, commitRetries, sweepCells, deduped int
}

// op is one operation of a workload: a call into the public API with
// inputs derived from the workload seed.
type op struct {
	label string
	// run executes the operation once. tr, when non-nil, receives the
	// event stream where the API lets a tracer attach. verify arms the
	// program's own checks (Verify, Audit, per-cell replay) and fills the
	// work fields that only those checks can see.
	run func(tr cb.Tracer, verify bool) (outcome, error)
	// replay, set when run cannot carry a tracer, re-executes the
	// operation's simulations through Run with tr attached.
	replay func(tr cb.Tracer) error
	// generate calls the workload layer directly on the operation's own
	// configuration, for the workload.generate_ms span.
	generate func() error
}

// workloadDef is a named, seeded list of distinct operations that a
// closed loop cycles through.
type workloadDef struct {
	name string
	// loop states the loop type and concurrency.
	loop string
	ops  []op
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed int64) (*workloadDef, error){
	"run-paper":     runPaper,
	"sweep-short":   sweepShort,
	"scale-sharded": scaleSharded,
	"serve-long":    serveLong,
}

// deriveSeeds expands the workload seed into n positive simulation seeds
// with the SplitMix64 finalizer, so neighbouring workload seeds give
// unrelated inputs.
func deriveSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z>>33) + 1
	}
	return out
}

// row is the simulated statistics a digest covers: the metric fields a
// Report and a sweep row share.
type row struct {
	Makespan, Speedup, BurstRatio, ICUtil, ECUtil, TSeq float64
	Jobs, Chunks, PeakCount                             int
	TotalStall, ECMachineSeconds                        float64
	Retries, Fallbacks                                  int
	Conflicts, Replacements, CommitRetries              int
}

func reportRow(r *cb.Report) row {
	return row{
		r.Makespan, r.Speedup, r.BurstRatio, r.ICUtil, r.ECUtil, r.TSeq,
		r.Jobs, r.ChunksCreated, r.PeakCount,
		r.TotalStall, r.ECMachineSeconds,
		r.Retries, r.Fallbacks,
		r.Conflicts, r.Replacements, r.CommitRetries,
	}
}

func metricsRow(m cb.SweepMetrics) row {
	return row{
		m.Makespan, m.Speedup, m.BurstRatio, m.ICUtil, m.ECUtil, m.TSeq,
		m.Jobs, m.Chunks, m.PeakCount,
		m.TotalStall, m.ECMachineSeconds,
		m.Retries, m.Fallbacks,
		m.Conflicts, m.Replacements, m.CommitRetries,
	}
}

// workloadBucket maps a public bucket name onto the workload layer's.
func workloadBucket(b cb.BucketName) (workload.Bucket, error) {
	switch b {
	case cb.Small:
		return workload.SmallBias, nil
	case cb.Uniform:
		return workload.UniformMix, nil
	case cb.Large:
		return workload.LargeBias, nil
	}
	return 0, fmt.Errorf("unknown bucket %q", b)
}

// generateBatches runs the workload generator on the configuration Run
// derives from o.
func generateBatches(o cb.Options) error {
	o = o.Normalize()
	b, err := workloadBucket(o.Bucket)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(workload.Config{
		Bucket:           b,
		Batches:          o.Batches,
		MeanJobsPerBatch: o.MeanJobsPerBatch,
		BatchInterval:    o.BatchIntervalSec,
		Seed:             o.WorkloadSeed,
	})
	if err != nil {
		return err
	}
	if len(gen.Generate()) == 0 {
		return errors.New("generator produced no batches")
	}
	return nil
}

// runOp is one Run call on fixed options. Verified executions also carry
// Verify and Audit and fail on any audit issue.
func runOp(label string, o cb.Options) op {
	return op{
		label: label,
		run: func(tr cb.Tracer, verify bool) (outcome, error) {
			o := o
			o.Trace = tr
			o.Verify, o.Audit = verify, verify
			r, err := cb.Run(o)
			if err != nil {
				return outcome{}, err
			}
			if verify {
				a, err := r.Audit()
				if err != nil {
					return outcome{}, err
				}
				if !a.OK() {
					return outcome{}, fmt.Errorf("audit found %d issues, first: %v", len(a.Issues), a.Issues[0])
				}
			}
			return outcome{
				work:          work{Digest: digest(reportRow(r)), Jobs: r.OriginalJobs, Cells: 1, SimSec: r.Makespan},
				conflicts:     r.Conflicts,
				replacements:  r.Replacements,
				commitRetries: r.CommitRetries,
			}, nil
		},
		generate: func() error { return generateBatches(o) },
	}
}

// runPaper cycles Run over the paper preset: Greedy, Op and SIBS × the
// three buckets × 16 seeds. Sixteen seeds keep the simulated work per
// cycle, and so the per-run figures, within a few per cent across
// workload seeds.
func runPaper(seed int64) (*workloadDef, error) {
	w := &workloadDef{name: "run-paper", loop: "closed loop, 1 caller, Run on one goroutine"}
	for _, s := range deriveSeeds(seed, 16) {
		for _, sc := range []cb.SchedulerName{cb.Greedy, cb.OrderPreserving, cb.SIBS} {
			for _, b := range cb.Buckets() {
				o, err := cb.Preset("paper")
				if err != nil {
					return nil, err
				}
				o.Scheduler, o.Bucket, o.WorkloadSeed, o.NetSeed = sc, b, s, s
				w.ops = append(w.ops, runOp(fmt.Sprintf("%s/%s/seed=%d", sc, b, s), o))
			}
		}
	}
	return w, nil
}

// scaleSharded cycles Run over the 2000-machine sharded acceptance cell
// with two seeds; ~5200 jobs per run already average out seed noise.
func scaleSharded(seed int64) (*workloadDef, error) {
	w := &workloadDef{name: "scale-sharded", loop: "closed loop, 1 caller, Run with 4 shard goroutines"}
	for _, s := range deriveSeeds(seed, 2) {
		o := cb.Options{
			Scheduler:        cb.Greedy,
			Bucket:           cb.Uniform,
			Batches:          2,
			MeanJobsPerBatch: 2600,
			BatchIntervalSec: 30,
			ICMachines:       4,
			ECMachines:       1996,
			UploadMeanBW:     512 << 20,
			DownloadMeanBW:   512 << 20,
			WorkloadSeed:     s,
			NetSeed:          s,
			Shards:           &cb.ShardOptions{Count: 4},
		}
		w.ops = append(w.ops, runOp(fmt.Sprintf("sharded/seed=%d", s), o))
	}
	return w, nil
}

// sweepShort repeats one SweepContext call over a 3 schedulers × 3
// buckets × 32 seeds grid of short cells on nproc workers. A short cell
// holds ~18 jobs, so it takes 32 seeds to hold a sweep's simulated work
// within a few per cent across workload seeds.
func sweepShort(seed int64) (*workloadDef, error) {
	spec := cb.SweepSpec{
		Schedulers:       []string{string(cb.Greedy), string(cb.OrderPreserving), string(cb.SIBS)},
		Buckets:          []string{string(cb.Small), string(cb.Uniform), string(cb.Large)},
		Seeds:            deriveSeeds(seed, 32),
		Batches:          3,
		MeanJobsPerBatch: 6,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	cells := spec.Cells()

	o := op{label: fmt.Sprintf("sweep/%d cells", len(cells))}
	o.run = func(_ cb.Tracer, verify bool) (outcome, error) {
		rs, err := cb.SweepContext(context.Background(), spec, cb.SweepConfig{Workers: workers})
		if err != nil {
			return outcome{}, err
		}
		if len(rs) != len(cells) {
			return outcome{}, fmt.Errorf("sweep returned %d cells, want %d", len(rs), len(cells))
		}
		rows := make([]row, len(rs))
		out := outcome{sweepCells: len(rs)}
		for i, r := range rs {
			rows[i] = metricsRow(r.Metrics)
			if r.Origin.String() == "dedup" {
				out.deduped++
			}
		}
		out.work = work{Digest: digest(rows), Cells: len(rs)}
		if !verify {
			return out, nil
		}
		// Every cell must replay bit-identically through a verified,
		// audited Run; the replay also supplies the work the sweep rows
		// do not carry.
		for i, r := range rs {
			co, err := cb.CellOptions(spec, r.Cell)
			if err != nil {
				return outcome{}, err
			}
			res, err := runOp("", co).run(nil, true)
			if err != nil {
				return outcome{}, fmt.Errorf("cell %d: %w", i, err)
			}
			if res.Digest != digest(rows[i]) {
				return outcome{}, fmt.Errorf("cell %d: sweep row differs from its Run replay", i)
			}
			out.Jobs += res.Jobs
			out.SimSec += res.SimSec
		}
		return out, nil
	}
	o.replay = func(tr cb.Tracer) error {
		for _, c := range cells {
			co, err := cb.CellOptions(spec, c)
			if err != nil {
				return err
			}
			co.Trace = tr
			if _, err := cb.Run(co); err != nil {
				return err
			}
		}
		return nil
	}
	o.generate = func() error {
		for _, c := range cells {
			co, err := cb.CellOptions(spec, c)
			if err != nil {
				return err
			}
			if err := generateBatches(co); err != nil {
				return err
			}
		}
		return nil
	}
	return &workloadDef{
		name: "sweep-short",
		loop: fmt.Sprintf("closed loop, 1 caller, SweepContext with Workers=%d", workers),
		ops:  []op{o},
	}, nil
}

// serveHorizon is the simulated time one serve-long operation admits
// arrivals for: long enough that per-window cost visibly follows history.
const serveHorizon = 8 * 3600.0

// serveLong runs one Serve per operation: steady arrivals on 32 IC × 4 EC
// machines for serveHorizon simulated seconds.
func serveLong(seed int64) (*workloadDef, error) {
	s := deriveSeeds(seed, 1)[0]
	so := cb.ServiceOptions{
		Options: cb.Options{
			Scheduler:    cb.OrderPreserving,
			ICMachines:   32,
			ECMachines:   4,
			WorkloadSeed: s,
			NetSeed:      s,
		},
		Arrivals:    cb.SteadyArrivals,
		DurationSec: serveHorizon,
	}
	o := op{label: fmt.Sprintf("serve/seed=%d", s)}
	o.run = func(tr cb.Tracer, verify bool) (outcome, error) {
		so := so
		so.Trace = tr
		so.Verify = verify
		last := cpuSeconds()
		svc, err := cb.Serve(context.Background(), so)
		if err != nil {
			return outcome{}, err
		}
		var out outcome
		for w := range svc.Reports() {
			now := cpuSeconds()
			if w.End <= so.DurationSec {
				out.steps = append(out.steps, (now-last)*1e3)
			}
			last = now
			out.windows++
		}
		rep, err := svc.Wait()
		if err != nil {
			return outcome{}, err
		}
		out.work = work{
			Digest: digest(rep.Fingerprint, rep.TraceEvents, rep.Fed, rep.Windows, rep.VirtualTime, reportRow(rep.Report)),
			Jobs:   rep.Fed,
			Cells:  1,
			SimSec: rep.VirtualTime,
		}
		return out, nil
	}
	o.generate = func() error {
		n := so.Options.Normalize()
		b, err := workloadBucket(n.Bucket)
		if err != nil {
			return err
		}
		rate := n.MeanJobsPerBatch
		src, err := workload.NewStream(workload.StreamConfig{
			Bucket:           b,
			Interval:         n.BatchIntervalSec,
			BaseJobsPerBatch: rate,
			Rate:             func(float64) float64 { return rate },
			Seed:             n.WorkloadSeed,
		})
		if err != nil {
			return err
		}
		ids := job.NewCounter(0)
		for {
			batch, ok := src.NextBatch(ids)
			if !ok || batch.At > so.DurationSec {
				return nil
			}
		}
	}
	return &workloadDef{
		name: "serve-long",
		loop: "closed loop, 1 caller, one Serve at a time (simulation goroutine plus the window consumer)",
		ops:  []op{o},
	}, nil
}

// cpuSeconds returns the CPU time this process has used, user plus
// system, over all its threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
