// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. V) from the simulation. Each driver returns a Table of
// the same rows/series the paper reports; the cmd/experiments binary prints
// them all and bench_test.go wraps each driver in a benchmark.
//
// Experiments replicate across seeds and report means — individual runs are
// deterministic, so any row can be reproduced exactly from its seed.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"cloudburst/internal/engine"
	"cloudburst/internal/sched"
	"cloudburst/internal/stats"
	"cloudburst/internal/sweep"
	"cloudburst/internal/workload"
)

// Table is a titled grid of formatted cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends an explanatory footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Replication identifies one run: a workload seed and a network seed.
type Replication struct {
	WorkloadSeed int64
	NetSeed      int64
}

// DefaultReplications returns n replication seed pairs derived from base.
func DefaultReplications(base int64, n int) []Replication {
	out := make([]Replication, n)
	for i := range out {
		out[i] = Replication{WorkloadSeed: base + int64(i), NetSeed: base + 100 + int64(i)}
	}
	return out
}

// RunSpec bundles everything needed for one scheduler's replicated runs.
type RunSpec struct {
	Bucket    workload.Bucket
	Workload  workload.Config // Bucket and Seed fields are overridden per replication
	Engine    engine.Config   // NetSeed overridden per replication
	Scheduler func() sched.Scheduler
}

// RunReplicated executes the spec once per replication — concurrently,
// since every run owns its private simulation — and returns the results in
// replication order. Execution rides the sweep engine's GOMAXPROCS-bounded
// worker pool: each run is seeded independently, so results do not depend
// on worker interleaving, per-run panics are isolated into typed
// *sweep.CellError values, and on failure the lowest-index error is
// returned regardless of which worker hit an error first.
func RunReplicated(spec RunSpec, reps []Replication) ([]*engine.Result, error) {
	return RunReplicatedContext(context.Background(), spec, reps)
}

// RunReplicatedContext is RunReplicated with cooperative cancellation: each
// in-flight run stops at its next poll and ctx.Err() is returned. Workers
// that have not started a replication when the context fires skip it.
func RunReplicatedContext(ctx context.Context, spec RunSpec, reps []Replication) ([]*engine.Result, error) {
	return sweep.Exec(ctx, replicationCells(reps), sweep.ExecConfig[*engine.Result]{},
		func(ctx context.Context, c sweep.Cell) (*engine.Result, error) {
			return runOne(ctx, spec, Replication{WorkloadSeed: c.WorkloadSeed, NetSeed: c.NetSeed})
		})
}

// replicationCells adapts a replication list to sweep cells. Fingerprints
// stay empty: replications are assumed distinct, and callers needing the
// full engine.Result (series, records) have no metrics vector to dedup.
func replicationCells(reps []Replication) []sweep.Cell {
	cells := make([]sweep.Cell, len(reps))
	for i, rep := range reps {
		cells[i] = sweep.Cell{
			Index:        i,
			Seed:         rep.WorkloadSeed,
			WorkloadSeed: rep.WorkloadSeed,
			NetSeed:      rep.NetSeed,
		}
	}
	return cells
}

// runOne executes a single replication.
func runOne(ctx context.Context, spec RunSpec, rep Replication) (*engine.Result, error) {
	wcfg := spec.Workload
	wcfg.Bucket = spec.Bucket
	wcfg.Seed = rep.WorkloadSeed
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		return nil, err
	}
	ecfg := spec.Engine
	ecfg.NetSeed = rep.NetSeed
	res, err := engine.RunContext(ctx, ecfg, spec.Scheduler(), gen.Generate())
	if err != nil {
		return nil, err
	}
	res.Bucket = spec.Bucket.String()
	return res, nil
}

// resultMetrics projects an engine result onto the sweep metrics vector
// consumed by the aggregation layer.
func resultMetrics(r *engine.Result) sweep.Metrics {
	peaks, stall, _ := r.Records.PeakStats()
	return sweep.Metrics{
		Makespan:         r.Makespan,
		Speedup:          r.Speedup,
		BurstRatio:       r.BurstRatio,
		ICUtil:           r.ICUtil,
		ECUtil:           r.ECUtil,
		TSeq:             r.TSeq,
		Jobs:             r.Jobs,
		Chunks:           r.ChunksCreated,
		PeakCount:        peaks,
		TotalStall:       stall,
		ECMachineSeconds: r.ECMachineSeconds,
		Counters:         r.Counters,
	}
}

// meanOf applies f to each result and averages.
func meanOf(rs []*engine.Result, f func(*engine.Result) float64) float64 {
	var s stats.Summary
	for _, r := range rs {
		s.Add(f(r))
	}
	return s.Mean()
}

// schedulerFactories returns the constructors for the named schedulers used
// throughout the experiment drivers.
func schedulerFactories() map[string]func() sched.Scheduler {
	return map[string]func() sched.Scheduler{
		"ICOnly":         func() sched.Scheduler { return sched.ICOnly{} },
		"Greedy":         func() sched.Scheduler { return sched.Greedy{} },
		"GreedyTracking": func() sched.Scheduler { return sched.GreedyTracking{} },
		"Op":             func() sched.Scheduler { return sched.OrderPreserving{} },
		"SIBS":           func() sched.Scheduler { return &sched.SIBS{} },
	}
}

func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
