package cloudburst

import (
	"fmt"
	"io"
	"strings"

	"cloudburst/internal/sweep"
)

// SweepSpec declares a parameter-sweep grid: schedulers × buckets × network
// profiles × fault sets × replication seeds, plus shared scalar knobs. The
// zero spec is a single cell of the paper testbed. See Sweep.
type SweepSpec = sweep.Spec

// SweepProfile is one named network regime of a sweep grid.
type SweepProfile = sweep.Profile

// SweepFaultSet is one named fault-injection regime of a sweep grid.
type SweepFaultSet = sweep.FaultSet

// SweepCostSet is one named pricing regime of a sweep grid.
type SweepCostSet = sweep.CostSet

// SweepCell is one expanded grid point with its derived seeds.
type SweepCell = sweep.Cell

// SweepMetrics is the per-cell measurement vector of a sweep.
type SweepMetrics = sweep.Metrics

// SweepResult is one finished sweep cell.
type SweepResult = sweep.Result

// SweepSpecError is the typed rejection of a structurally invalid grid
// specification (see ParseSweepSpec and SweepSpec.Validate).
type SweepSpecError = sweep.SpecError

// SweepCellError is the typed failure of a single sweep cell: a runner
// error (unwrappable with errors.As) or an isolated per-cell panic.
type SweepCellError = sweep.CellError

// SweepGroup is one group-by aggregate of sweep results.
type SweepGroup = sweep.Group

// ParseSweepSpec decodes and validates a JSON grid specification; every
// rejection is a typed *SweepSpecError.
func ParseSweepSpec(data []byte) (*SweepSpec, error) { return sweep.ParseSpec(data) }

// AggregateSweep groups sweep results by keyOf and summarizes every metric
// per group (mean, stddev, min, max) in first-appearance order.
func AggregateSweep(results []SweepResult, keyOf func(SweepCell) string) []SweepGroup {
	return sweep.Aggregate(results, keyOf)
}

// SweepParetoPoint is one cell on the cost-vs-makespan frontier.
type SweepParetoPoint = sweep.ParetoPoint

// SweepParetoFront extracts the non-dominated subset of sweep results over
// (rental cost, makespan), both minimized, sorted by ascending cost — the
// frontier an operator picks a budget from.
func SweepParetoFront(results []SweepResult) []SweepParetoPoint {
	return sweep.ParetoFront(results)
}

// SweepConfig tunes sweep execution. The zero value runs on GOMAXPROCS
// workers with no sinks and no resume manifest.
type SweepConfig struct {
	// Workers bounds the concurrent simulations; zero means GOMAXPROCS.
	Workers int
	// JSONL and CSV, when non-nil, receive finished cells incrementally in
	// deterministic cell order (one JSON object / CSV row per cell).
	JSONL io.Writer
	CSV   io.Writer
	// ManifestPath arms crash-safe resume: every completed cell is
	// journaled there the moment it finishes, and a re-run with the same
	// path re-executes only the cells not yet on record. Output sinks are
	// always rewritten in full on resume; the manifest is the only
	// append-only artifact.
	ManifestPath string
	// Progress, when set, observes completion: done counts settled cells
	// (executed, deduped or resumed), total is the cell count.
	Progress func(done, total int)
}

// CellOptions returns the exact Options a sweep cell executes: the spec's
// shared knobs, the cell's axis selections, and its derived seeds. Running
// the returned value through Run reproduces the cell's metrics
// bit-identically — every cell of a sweep is individually replayable.
func CellOptions(spec SweepSpec, c SweepCell) (Options, error) {
	prof, ok := spec.Profile(c.Profile)
	if !ok {
		return Options{}, &SweepSpecError{Field: "profiles", Reason: fmt.Sprintf("cell %d names unknown profile %q", c.Index, c.Profile)}
	}
	fault, ok := spec.FaultSet(c.Fault)
	if !ok {
		return Options{}, &SweepSpecError{Field: "faults", Reason: fmt.Sprintf("cell %d names unknown fault set %q", c.Index, c.Fault)}
	}
	o := Options{
		Scheduler:        SchedulerName(c.Scheduler),
		Bucket:           BucketName(c.Bucket),
		Batches:          spec.Batches,
		MeanJobsPerBatch: spec.MeanJobsPerBatch,
		BatchIntervalSec: spec.BatchIntervalSec,
		WorkloadSeed:     c.WorkloadSeed,
		ICMachines:       spec.ICMachines,
		ECMachines:       spec.ECMachines,
		NetSeed:          c.NetSeed,
		SlackMarginSec:   spec.SlackMarginSec,
		Rescheduling:     spec.Rescheduling,
		OOToleranceJobs:  spec.OOToleranceJobs,
		OOSampleInterval: spec.OOSampleInterval,

		UploadMeanBW:       prof.UploadMeanBW,
		DownloadMeanBW:     prof.DownloadMeanBW,
		DiurnalAmplitude:   prof.DiurnalAmplitude,
		JitterCV:           prof.JitterCV,
		OutageMTBF:         prof.OutageMTBF,
		OutageMeanDuration: prof.OutageMeanDuration,
		OutageThrottle:     prof.OutageThrottle,
	}
	if fault.Enabled() {
		o.Faults = &FaultOptions{
			ECRevocationMTBF:     fault.ECRevocationMTBF,
			ECRevocationWarning:  fault.ECRevocationWarning,
			ICCrashMTBF:          fault.ICCrashMTBF,
			ICCrashMTTR:          fault.ICCrashMTTR,
			TransferStallMTBF:    fault.TransferStallMTBF,
			TransferStallTimeout: fault.TransferStallTimeout,
			MaxRetries:           fault.MaxRetries,
			RetryBackoff:         fault.RetryBackoff,
			Seed:                 c.FaultSeed,
		}
	}
	// Cells planned before the cost axis existed carry no cost name; they
	// keep pricing off rather than failing the lookup.
	if c.Cost != "" {
		costSet, ok := spec.CostSet(c.Cost)
		if !ok {
			return Options{}, &SweepSpecError{Field: "costs", Reason: fmt.Sprintf("cell %d names unknown cost set %q", c.Index, c.Cost)}
		}
		if costSet.Enabled() {
			o.Cost = &CostOptions{
				OnDemandRate:       costSet.OnDemandRate,
				SpotRate:           costSet.SpotRate,
				BillingIntervalSec: costSet.BillingIntervalSec,
				Budget:             costSet.Budget,
			}
		}
	}
	// Cells planned before the shard axis existed carry 0; like 1 it keeps
	// the monolithic path.
	if c.Shards > 1 {
		o.Shards = &ShardOptions{Count: c.Shards}
	}
	return o, nil
}

// Validate reports whether the normalized options describe a runnable
// configuration, returning the same typed *OptionError that Run would.
// Scheduler and bucket names are resolved too, so a nil return means Run
// will reach the simulation.
func (o Options) Validate() error {
	n := o.Normalize()
	if err := n.validate(); err != nil {
		return err
	}
	if _, err := n.bucket(); err != nil {
		return err
	}
	if _, err := n.scheduler(); err != nil {
		return err
	}
	return nil
}

// Fingerprint canonically serializes the semantic configuration of the
// options: two Options values with equal fingerprints run bit-identical
// simulations. Normalization is applied first, so a zero field and its
// documented default collapse to the same fingerprint; the observer-only
// fields (Trace, Audit, Verify) are excluded because they never change a
// run's results. The sweep engine keys its dedup cache and resume manifest
// on this string.
func (o Options) Fingerprint() string {
	n := o.Normalize()
	var b strings.Builder
	fmt.Fprintf(&b, "v1|sched=%s|bucket=%s|batches=%d|jobs=%g|interval=%g|wseed=%d",
		n.Scheduler, n.Bucket, n.Batches, n.MeanJobsPerBatch, n.BatchIntervalSec, n.WorkloadSeed)
	fmt.Fprintf(&b, "|ic=%d|ec=%d|up=%g|down=%g|amp=%g|cv=%g|nseed=%d",
		n.ICMachines, n.ECMachines, n.UploadMeanBW, n.DownloadMeanBW, n.DiurnalAmplitude, n.JitterCV, n.NetSeed)
	fmt.Fprintf(&b, "|omtbf=%g|odur=%g|othr=%g|margin=%g|resched=%t",
		n.OutageMTBF, n.OutageMeanDuration, n.OutageThrottle, n.SlackMarginSec, n.Rescheduling)
	fmt.Fprintf(&b, "|asmax=%d|asboot=%g|aswait=%g|ootol=%d|oosamp=%g",
		n.AutoscaleECMax, n.AutoscaleBootDelay, n.AutoscaleTargetWait, n.OOToleranceJobs, n.OOSampleInterval)
	for _, s := range n.ExtraECSites {
		fmt.Fprintf(&b, "|site=%d,%g,%g,%g,%g", s.Machines, s.UploadMeanBW, s.DownloadMeanBW, s.JitterCV, s.OnDemandRate)
	}
	if f := n.Faults; f != nil {
		fmt.Fprintf(&b, "|faults=%g,%g,%g,%g,%g,%g,%d,%g,%d",
			f.ECRevocationMTBF, f.ECRevocationWarning, f.ICCrashMTBF, f.ICCrashMTTR,
			f.TransferStallMTBF, f.TransferStallTimeout, f.MaxRetries, f.RetryBackoff, f.Seed)
	}
	if c := n.Cost; c != nil {
		fmt.Fprintf(&b, "|cost=%g,%g,%g,%g",
			c.OnDemandRate, c.SpotRate, c.BillingIntervalSec, c.Budget)
	}
	// Shards=1 is semantically the monolithic path, so only a real shard
	// count perturbs the fingerprint — pre-sharding manifests stay valid.
	if s := n.Shards; s != nil && s.Count > 1 {
		fmt.Fprintf(&b, "|shards=%d,%s,%d,%d", s.Count, s.Partition, s.MaxRetries, s.Seed)
	}
	return b.String()
}

// sweepMetrics projects a report onto the sweep measurement vector.
func sweepMetrics(r *Report) SweepMetrics {
	return SweepMetrics{
		Makespan:         r.Makespan,
		Speedup:          r.Speedup,
		BurstRatio:       r.BurstRatio,
		ICUtil:           r.ICUtil,
		ECUtil:           r.ECUtil,
		TSeq:             r.TSeq,
		Jobs:             r.Jobs,
		Chunks:           r.ChunksCreated,
		PeakCount:        r.PeakCount,
		TotalStall:       r.TotalStall,
		ECMachineSeconds: r.ECMachineSeconds,
		Counters:         r.RunCounters,
	}
}

// planSweep validates the spec, expands it, and stamps each cell with its
// effective configuration fingerprint.
func planSweep(spec SweepSpec) ([]SweepCell, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells := spec.Cells()
	for i := range cells {
		o, err := CellOptions(spec, cells[i])
		if err != nil {
			return nil, err
		}
		// Reject unrunnable grids at plan time, before any simulation has
		// started — the same typed errors Run would raise cell by cell.
		if err := o.Validate(); err != nil {
			return nil, err
		}
		cells[i].Fingerprint = o.Fingerprint()
	}
	return cells, nil
}
