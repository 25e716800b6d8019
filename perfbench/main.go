// Command perfbench measures cloudburst from outside, through its public
// Run, SweepContext and Serve functions, on four seeded closed-loop
// workloads. An untraced run (--trace 0) reports the end-to-end metrics;
// a traced run (--trace 1) attaches a CPU profile and an event-counting
// tracer and reports per-layer metrics. Every operation's simulated
// statistics must match a digest recorded by verified set-up passes.
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the metric definitions.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	cb "cloudburst"
	"cloudburst/internal/qrsm"
	"cloudburst/internal/workload"
)

// setupPasses is how many separate processes repeat the set-up pass in an
// untraced run; setup_s is their median.
const setupPasses = 3

// spanReps is how many times each span is timed; the span reports the
// median.
const spanReps = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload: run-paper, sweep-short, scale-sharded or serve-long")
		seed    = flag.Int64("seed", 1, "workload seed; every input derives from it")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		traced  = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
		child   = flag.Bool("setup-child", false, "run one verified set-up pass and print its record (internal)")
	)
	flag.Parse()
	build, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload run-paper|sweep-short|scale-sharded|serve-long --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	w, err := build(*seed)
	if err != nil {
		fatal(err)
	}
	if *child {
		works, err := setupPass(w)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(works); err != nil {
			fatal(err)
		}
		return
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds}
	if *traced == 1 {
		err = b.runTraced()
	} else {
		err = b.runUntraced()
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setupPass runs every distinct operation once with the program's own
// checks armed and returns what each simulated.
func setupPass(w *workloadDef) ([]work, error) {
	works := make([]work, len(w.ops))
	for i, o := range w.ops {
		out, err := o.run(nil, true)
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", o.label, err)
		}
		works[i] = out.work
	}
	return works, nil
}

// bench is one benchmark invocation.
type bench struct {
	w       *workloadDef
	seed    int64
	seconds float64

	ref       []work // per distinct operation, from the set-up passes
	setupS    []float64
	attempted int
	failed    int
	problems  []string
}

// fail records one failed operation.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 5 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// setUp starts n set-up processes one after another. Each derives its
// inputs, verifies every distinct operation and exits; its CPU time, from
// process start to exit, is one set-up time. All must record the same
// work.
func (b *bench) setUp(n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
		cmd := exec.CommandContext(ctx, exe, "--setup-child",
			"--workload", b.w.name, "--seed", fmt.Sprint(b.seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return fmt.Errorf("set-up pass %d: %w", i+1, err)
		}
		cpu := (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
		var works []work
		if err := json.Unmarshal(out, &works); err != nil {
			return fmt.Errorf("set-up pass %d: %w", i+1, err)
		}
		if len(works) != len(b.w.ops) {
			return fmt.Errorf("set-up pass %d recorded %d operations, want %d", i+1, len(works), len(b.w.ops))
		}
		if b.ref == nil {
			b.ref = works
		}
		for j := range works {
			if works[j] != b.ref[j] {
				return fmt.Errorf("set-up pass %d: %s recorded %+v, pass 1 %+v", i+1, b.w.ops[j].label, works[j], b.ref[j])
			}
		}
		b.setupS = append(b.setupS, cpu)
	}
	return nil
}

// warmUp runs each distinct operation once untimed, so lazily filled
// caches and pools are ready before anything is measured.
func (b *bench) warmUp() {
	for i := range b.w.ops {
		b.exec(i, nil)
	}
}

// exec runs distinct operation i once and checks it against its digest.
// It reports the operation's CPU and wall seconds and whether it
// succeeded.
func (b *bench) exec(i int, tr cb.Tracer) (out outcome, cpuS, wallS float64, ok bool) {
	o := b.w.ops[i]
	b.attempted++
	cpu0, wall0 := cpuSeconds(), time.Now()
	out, err := o.run(tr, false)
	cpuS, wallS = cpuSeconds()-cpu0, time.Since(wall0).Seconds()
	switch {
	case err != nil:
		b.fail("%s: %v", o.label, err)
		return out, cpuS, wallS, false
	case out.Digest != b.ref[i].Digest:
		b.fail("%s: digest %s, set-up recorded %s", o.label, out.Digest, b.ref[i].Digest)
		return out, cpuS, wallS, false
	}
	return out, cpuS, wallS, true
}

// loopStats aggregates one closed-loop measurement.
type loopStats struct {
	ops      int
	opMS     []float64   // CPU ms per operation, in order
	windows  [][]float64 // per Serve: CPU ms per served window
	cycles   []cycleStat // complete passes over the distinct operations
	outcomes []outcome
	before   gcSnapshot
	after    gcSnapshot
	peakHeap float64 // median per-GC-cycle peak heap bytes
}

// cycleStat is the work and CPU time of one pass over the distinct
// operations.
type cycleStat struct {
	cpuS   float64
	wallS  float64
	jobs   int
	cells  int
	simSec float64
}

// loop cycles the distinct operations back to back until the duration is
// used up; each operation starts only when the previous one returned.
func (b *bench) loop(d time.Duration, tr cb.Tracer) loopStats {
	var ls loopStats
	peak := startHeapSampler()
	ls.before = readGC()
	start := time.Now()
	var cur cycleStat
	whole := true // no operation of the current cycle failed
	for i := 0; time.Since(start) < d; i++ {
		k := i % len(b.w.ops)
		if k == 0 {
			cur, whole = cycleStat{}, true
		}
		out, cpuS, wallS, ok := b.exec(k, tr)
		if !ok {
			whole = false
			continue
		}
		cur.cpuS += cpuS
		cur.wallS += wallS
		cur.jobs += b.ref[k].Jobs
		cur.cells += b.ref[k].Cells
		cur.simSec += b.ref[k].SimSec
		if k == len(b.w.ops)-1 && whole {
			ls.cycles = append(ls.cycles, cur)
		}
		ls.ops++
		ls.opMS = append(ls.opMS, cpuS*1e3)
		if out.steps != nil {
			ls.windows = append(ls.windows, out.steps)
		}
		ls.outcomes = append(ls.outcomes, out)
	}
	ls.after = readGC()
	ls.peakHeap = peak.stop()
	return ls
}

// steps returns the step CPU times: served windows for Serve, whole
// operations otherwise.
func (ls loopStats) steps() []float64 {
	if len(ls.windows) == 0 {
		return ls.opMS
	}
	var all []float64
	for _, w := range ls.windows {
		all = append(all, w...)
	}
	return all
}

// cyclesPerSegment is how many consecutive cycles make one growth
// segment outside serve-long: short enough that its quarters lie about a
// second apart, so slow drift in machine speed does not read as growth.
const cyclesPerSegment = 8

// growth is the late/early step cost ratio, as the median over segments
// of each one's growth: a segment is one Serve, whose steps are its served
// windows, or, for the other workloads, cyclesPerSegment consecutive
// cycles, whose steps are the cycles.
func (ls loopStats) growth() float64 {
	var gs []float64
	for _, w := range ls.windows {
		gs = append(gs, growth(w))
	}
	for i := 0; len(ls.windows) == 0 && i+cyclesPerSegment <= len(ls.cycles); i += cyclesPerSegment {
		costs := make([]float64, cyclesPerSegment)
		for j, c := range ls.cycles[i : i+cyclesPerSegment] {
			costs[j] = c.cpuS
		}
		gs = append(gs, growth(costs))
	}
	return median(gs)
}

// perCPUSecond is the median over cycles of a cycle's work per CPU
// second. A cycle's CPU time includes the collections that ran during it,
// and the median keeps a cycle slowed by a noisy neighbour from moving the
// result.
func (ls loopStats) perCPUSecond(work func(cycleStat) float64) float64 {
	rates := make([]float64, len(ls.cycles))
	for i, c := range ls.cycles {
		rates[i] = work(c) / c.cpuS
	}
	return median(rates)
}

// headlines names, per workload, the headline metric each generic metric
// stands for; the generic one reads the CPU clock.
var headlines = map[string]map[string]string{
	"run-paper":     {"step_cpu_ms_p50": "run_ms_p50", "step_cpu_ms_p90": "run_ms_p90", "jobs_per_cpu_s": "jobs_per_s"},
	"scale-sharded": {"step_cpu_ms_p50": "run_ms_p50", "step_cpu_ms_p90": "run_ms_p90", "jobs_per_cpu_s": "jobs_per_s"},
	"sweep-short":   {"cells_per_cpu_s": "cells_per_s", "jobs_per_cpu_s": "jobs_per_s"},
	"serve-long": {
		"step_cpu_ms_p50": "serve_window_ms_p50", "step_cpu_ms_p90": "serve_window_ms_p90",
		"sim_s_per_cpu_s": "serve_sim_s_per_wall_s", "growth": "serve_growth", "jobs_per_cpu_s": "jobs_per_s",
	},
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // sample count behind a percentile, 0 when not one
	alias string // the same quantity's name on this workload, if any
}

func (b *bench) runUntraced() error {
	if err := b.setUp(setupPasses); err != nil {
		return err
	}
	b.warmUp()
	ls := b.loop(time.Duration(b.seconds*float64(time.Second)), nil)
	if ls.ops == 0 {
		return errors.New("no operation completed")
	}
	steps := ls.steps()
	p50, n := percentile(steps, 50)
	p90, _ := percentile(steps, 90)
	vals := []metric{
		{name: "setup_s", value: median(b.setupS), unit: "s", n: len(b.setupS)},
		{name: "step_cpu_ms_p50", value: p50, unit: "ms", n: n},
		{name: "step_cpu_ms_p90", value: p90, unit: "ms", n: n},
		{name: "jobs_per_cpu_s", value: ls.perCPUSecond(func(c cycleStat) float64 { return float64(c.jobs) }), unit: "1/s"},
		{name: "cells_per_cpu_s", value: ls.perCPUSecond(func(c cycleStat) float64 { return float64(c.cells) }), unit: "1/s"},
		{name: "sim_s_per_cpu_s", value: ls.perCPUSecond(func(c cycleStat) float64 { return c.simSec }), unit: "s/s"},
		{name: "growth", value: ls.growth(), unit: "ratio"},
		{name: "alloc_mb_per_op", value: float64(ls.after.allocBytes-ls.before.allocBytes) / 1e6 / float64(ls.ops), unit: "MB"},
		{name: "peak_heap_mb", value: ls.peakHeap / 1e6, unit: "MB"},
	}
	for i := range vals {
		vals[i].alias = headlines[b.w.name][vals[i].name]
	}
	var sum cycleStat
	for _, c := range ls.cycles {
		sum.wallS += c.wallS
		sum.jobs += c.jobs
		sum.cells += c.cells
		sum.simSec += c.simSec
	}
	wall := fmt.Sprintf("wall clock   jobs_per_s %.6g, cells_per_s %.6g, sim_s_per_wall_s %.6g over %.3g s of whole cycles",
		float64(sum.jobs)/sum.wallS, float64(sum.cells)/sum.wallS, sum.simSec/sum.wallS, sum.wallS)
	b.report(vals, ls.ops, true, wall)
	return nil
}

func (b *bench) runTraced() error {
	if err := b.setUp(1); err != nil {
		return err
	}
	b.warmUp()
	half := time.Duration(b.seconds * float64(time.Second) / 2)

	plain := b.loop(half, nil)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	counter := &eventCounter{}
	traced := b.loop(half, counter)
	pprof.StopCPUProfile()
	if plain.ops == 0 || traced.ops == 0 {
		return errors.New("no operation completed")
	}

	// Event counts per operation: from the traced loop where the API lets
	// the tracer attach, else from one replay of each distinct operation.
	countedOps := traced.ops
	if b.w.ops[0].replay != nil {
		counter = &eventCounter{}
		for _, o := range b.w.ops {
			if err := o.replay(counter); err != nil {
				return fmt.Errorf("replay %s: %w", o.label, err)
			}
		}
		countedOps = len(b.w.ops)
	}
	perOp := func(n int64) float64 { return float64(n) / float64(countedOps) }

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares := layerShares(samples)

	genMS, err := spanMS(b.w.ops, func(o op) error { return o.generate() })
	if err != nil {
		return err
	}
	bootMS, err := spanMS(b.w.ops[:1], func(op) error { return bootstrapEstimator() })
	if err != nil {
		return err
	}

	var conflicts, replacements, retries, sweepCells, deduped, windows int
	for _, o := range traced.outcomes {
		conflicts += o.conflicts
		replacements += o.replacements
		retries += o.commitRetries
		sweepCells += o.sweepCells
		deduped += o.deduped
		windows += o.windows
	}
	perTracedOp := func(n int) float64 { return float64(n) / float64(traced.ops) }
	placements := perOp(counter.n[typePlacementDecided])
	untracedOpMS := mean(plain.opMS)
	tracedOpMS := mean(traced.opMS)
	events := perOp(counter.total())
	safeDiv := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var vals []metric
	add := func(name string, v float64, unit string) {
		vals = append(vals, metric{name: name, value: v, unit: unit})
	}
	for _, l := range layerNames {
		add(l+".cpu_share", shares[l], "fraction")
	}
	add("workload.jobs", perOp(counter.n[typeJobArrived]), "count")
	add("workload.chunks", perOp(counter.n[typeChunked]), "count")
	add("workload.generate_ms", genMS, "ms")
	add("qrsm.observations", perOp(counter.n[typeComputeEnd]), "count")
	add("qrsm.bootstrap_ms", bootMS, "ms")
	add("sched.placements", placements, "count")
	add("sched.bursts", perOp(counter.bursts), "count")
	add("shard.conflicts", perTracedOp(conflicts), "count")
	add("shard.replacements", perTracedOp(replacements), "count")
	add("shard.commit_retries", perTracedOp(retries), "count")
	add("shard.conflicts_per_placement", safeDiv(perTracedOp(conflicts), placements), "ratio")
	add("sim.ns_per_event", safeDiv(untracedOpMS*1e6, events), "ns")
	add("netsim.transfers", perOp(counter.n[typeUploadStart]+counter.n[typeDownloadStart]), "count")
	add("netsim.probes", perOp(counter.n[typeProbeCompleted]), "count")
	add("netsim.mb_moved", perOp(counter.bytes)/1e6, "MB")
	add("cluster.tasks", perOp(counter.n[typeComputeStart]), "count")
	add("sla.deliveries", perOp(counter.n[typeJobDelivered]), "count")
	add("window.reports", perTracedOp(windows), "count")
	add("trace.events", events, "count")
	add("trace.overhead_frac", tracedOpMS/untracedOpMS-1, "fraction")
	add("sweep.cells", perTracedOp(sweepCells), "count")
	add("sweep.cells_deduped", perTracedOp(deduped), "count")
	add("gc.cycles_per_op", float64(plain.after.cycles-plain.before.cycles)/float64(plain.ops), "count")
	add("gc.pause_ms_total", (plain.after.pauseS-plain.before.pauseS)*1e3/float64(plain.ops), "ms")
	ticks := int64(0)
	for _, s := range samples {
		ticks += s.count
	}
	add("profile.samples", float64(ticks), "count")

	sum := 0.0
	for _, l := range layerNames {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		b.fail("layer shares sum to %v, not 1", sum)
	}
	b.report(vals, plain.ops+traced.ops, false)
	return nil
}

// spanMS times fn over each operation spanReps times and returns the mean
// over operations of each one's median time, in ms.
func spanMS(ops []op, fn func(op) error) (float64, error) {
	total := 0.0
	for _, o := range ops {
		var ts []float64
		for r := 0; r < spanReps; r++ {
			start := cpuSeconds()
			if err := fn(o); err != nil {
				return 0, fmt.Errorf("span on %s: %w", o.label, err)
			}
			ts = append(ts, (cpuSeconds()-start)*1e3)
		}
		total += median(ts)
	}
	return total / float64(len(ops)), nil
}

// bootstrapEstimator performs the QRSM bootstrap a run's estimator starts
// from, with the engine's defaults: 200 synthetic observations at noise CV
// 0.12, then the first factorization.
func bootstrapEstimator() error {
	est := qrsm.NewEstimator()
	fs, ys := workload.BootstrapSet(7, 200, 0.12)
	est.Bootstrap(fs, ys)
	est.Materialize()
	if est.Estimate(fs[0]) <= 0 {
		return errors.New("bootstrapped estimator predicts no time")
	}
	return nil
}

// report prints the human-readable block, with any notes, and, as the
// last line, the JSON result.
func (b *bench) report(vals []metric, measuredOps int, untraced bool, notes ...string) {
	digests := make([]string, len(b.ref))
	for i, r := range b.ref {
		digests[i] = r.Digest
	}
	mode := "traced (per-layer)"
	if untraced {
		mode = "untraced (end-to-end)"
	}
	out := os.Stdout
	fmt.Fprintf(out, "workload     %s, seed %d, %s\n", b.w.name, b.seed, mode)
	fmt.Fprintf(out, "loop         %s; GOMAXPROCS=%d, nproc=%d\n", b.w.loop, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(out, "operations   %d distinct, %d measured\n", len(b.w.ops), measuredOps)
	fmt.Fprintf(out, "digest       %s\n", combineDigests(digests))
	for _, n := range notes {
		fmt.Fprintln(out, n)
	}
	correct := b.failed == 0
	byName := make(map[string]jsonMetric, len(vals))
	for _, m := range vals {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			b.problems = append(b.problems, m.name+" is not finite")
			v = 0
		}
		line := fmt.Sprintf("%-32s %14.6g %s", m.name, v, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf("  (n=%d)", m.n)
		}
		if m.alias != "" {
			line += "  ≙ " + m.alias + " (CPU clock)"
		}
		fmt.Fprintln(out, line)
		byName[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	fmt.Fprintf(out, "%-32s %14.6g fraction  (%d/%d)\n", "failed_frac",
		float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	for _, p := range b.problems {
		fmt.Fprintln(out, "problem     ", p)
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, max(b.attempted, 1), b.failed, byName}
	enc, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(out, string(enc))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Event types the counter distinguishes, resolved by name through the
// public TraceEventType.
var (
	typeJobArrived       = eventType("JobArrived")
	typeChunked          = eventType("Chunked")
	typePlacementDecided = eventType("PlacementDecided")
	typeUploadStart      = eventType("UploadStart")
	typeUploadEnd        = eventType("UploadEnd")
	typeComputeStart     = eventType("ComputeStart")
	typeComputeEnd       = eventType("ComputeEnd")
	typeDownloadStart    = eventType("DownloadStart")
	typeDownloadEnd      = eventType("DownloadEnd")
	typeProbeCompleted   = eventType("ProbeCompleted")
	typeJobDelivered     = eventType("JobDelivered")
)

func eventType(name string) cb.TraceEventType {
	var t cb.TraceEventType
	if err := t.UnmarshalText([]byte(name)); err != nil {
		panic(err)
	}
	return t
}

// eventCounter is a Tracer that counts events by type, bursts, and the
// job payload bytes that finished crossing a link.
type eventCounter struct {
	n      [256]int64
	bursts int64
	bytes  int64
}

func (c *eventCounter) Emit(ev cb.TraceEvent) {
	c.n[ev.Type]++
	switch ev.Type {
	case typePlacementDecided:
		if ev.Where == "EC" {
			c.bursts++
		}
	case typeUploadEnd, typeDownloadEnd:
		c.bytes += ev.Bytes
	}
}

func (c *eventCounter) total() int64 {
	var t int64
	for _, n := range c.n {
		t += n
	}
	return t
}

// gcSnapshot is the slice of runtime/metrics the benchmark reads.
type gcSnapshot struct {
	allocBytes uint64
	cycles     uint64
	pauseS     float64
}

func readGC() gcSnapshot {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	var s gcSnapshot
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		s.allocBytes = v.Uint64()
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		s.cycles = v.Uint64()
	}
	if v := samples[2].Value; v.Kind() == metrics.KindFloat64Histogram {
		s.pauseS = histogramSum(v.Float64Histogram())
	}
	return s
}

// histogramSum estimates the total of a runtime/metrics histogram from
// bucket midpoints; an unbounded bucket counts at its finite edge.
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += float64(c) * mid
	}
	return sum
}

// heapSampler polls the heap while a loop runs and keeps, for each GC
// cycle, the largest heap it saw before that cycle's collection ended.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peaks  map[uint64]uint64 // completed GC cycles at sampling time → peak heap bytes
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), peaks: map[uint64]uint64{}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
		}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[1].Value.Kind() == metrics.KindUint64 {
				c, v := s[1].Value.Uint64(), s[0].Value.Uint64()
				h.peaks[c] = max(h.peaks[c], v)
			}
			select {
			case <-h.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampler, waits for it and returns the median over GC
// cycles of the per-cycle peak heap bytes. The median, unlike the single
// largest sample, does not hinge on where one collection happened to
// start.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	h.wg.Wait()
	peaks := make([]float64, 0, len(h.peaks))
	for _, p := range h.peaks {
		peaks = append(peaks, float64(p))
	}
	return median(peaks)
}
