package refsim_test

// Differential harness: every golden configuration runs twice — once on the
// optimized stack (production schedulers, fheap pipelines, pooled events,
// estimator cache) with the runtime invariant checker attached, and once on
// the reference stack (refsim schedulers, linear scans, reference-mode
// engine). The two runs must agree on every reported metric and on the OO
// series to a relative error of 1e-9, and the optimized run must produce
// zero invariant violations.

import (
	"math"
	"testing"

	"cloudburst/internal/cluster"
	"cloudburst/internal/cost"
	"cloudburst/internal/engine"
	"cloudburst/internal/invariant"
	"cloudburst/internal/netsim"
	"cloudburst/internal/refsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/shard"
	"cloudburst/internal/workload"
)

// relTol is the differential acceptance bound from the issue. In practice
// the two stacks agree bit for bit; the tolerance only absorbs a future
// reassociation of a float sum.
const relTol = 1e-9

// ooInterval matches the paper's 2-minute OO sampling grid.
const ooInterval = 120.0

type diffCase struct {
	name  string
	cfg   func() engine.Config // fresh config per run: cases carry pointers
	sched func() sched.Scheduler
	ref   string // refsim scheduler name
}

func diffCases() []diffCase {
	base := func() engine.Config { return engine.Config{NetSeed: 43} }
	resched := func() engine.Config { return engine.Config{NetSeed: 43, Rescheduling: true} }
	multi := func() engine.Config {
		return engine.Config{
			NetSeed:      43,
			Rescheduling: true,
			RemoteSites:  []engine.RemoteSiteConfig{{Machines: 2}},
		}
	}
	scaled := func() engine.Config {
		return engine.Config{
			NetSeed:    43,
			ECMachines: 1,
			Autoscale:  &engine.AutoscaleConfig{Max: 6},
		}
	}
	outage := func() engine.Config {
		return engine.Config{
			NetSeed: 43,
			Outages: &netsim.OutageModel{MeanTimeBetween: 3000, MeanDuration: 300, ThrottleFactor: 0.2},
		}
	}
	ecRevoke := func() engine.Config {
		return engine.Config{
			NetSeed: 43,
			Faults: &engine.FaultConfig{
				ECRevocation: cluster.FaultModel{MTBF: 400, WarnLead: 30},
			},
		}
	}
	icCrash := func() engine.Config {
		return engine.Config{
			NetSeed: 43,
			Faults: &engine.FaultConfig{
				ICCrash: cluster.FaultModel{MTBF: 600, MTTR: 300},
			},
		}
	}
	stall := func() engine.Config {
		return engine.Config{
			NetSeed: 43,
			Faults: &engine.FaultConfig{
				TransferStalls: netsim.StallModel{MeanTimeBetween: 1200, Timeout: 90},
			},
		}
	}
	priced := func() engine.Config {
		return engine.Config{
			NetSeed: 43,
			Cost:    &cost.Config{OnDemandRate: 0.10},
		}
	}
	// A tight budget forces the admission gate to push work back to the IC
	// in both stacks; the twins must agree on every forced placement.
	budgeted := func() engine.Config {
		return engine.Config{
			NetSeed: 43,
			Cost:    &cost.Config{OnDemandRate: 0.10, Budget: 0.25},
		}
	}
	spotRevoke := func() engine.Config {
		return engine.Config{
			NetSeed: 43,
			Cost:    &cost.Config{OnDemandRate: 0.10, SpotRate: 0.03, Spot: true, Budget: 0.15},
			Faults: &engine.FaultConfig{
				ECRevocation: cluster.FaultModel{MTBF: 400, WarnLead: 30},
			},
		}
	}
	greedy := func() sched.Scheduler { return sched.Greedy{} }
	op := func() sched.Scheduler { return sched.OrderPreserving{} }
	sibs := func() sched.Scheduler { return &sched.SIBS{} }
	return []diffCase{
		{"greedy", base, greedy, "Greedy"},
		{"op", base, op, "Op"},
		{"sibs", base, sibs, "SIBS"},
		{"op-resched", resched, op, "Op"},
		{"sibs-resched", resched, sibs, "SIBS"},
		{"op-multisite", multi, op, "Op"},
		{"op-autoscale", scaled, op, "Op"},
		{"greedy-outage", outage, greedy, "Greedy"},
		{"op-ec-revoke", ecRevoke, op, "Op"},
		{"op-ic-crash", icCrash, op, "Op"},
		{"sibs-stall", stall, sibs, "SIBS"},
		{"greedy-priced", priced, greedy, "Greedy"},
		{"op-budget", budgeted, op, "Op"},
		{"sibs-budget", budgeted, sibs, "SIBS"},
		{"greedy-budget", budgeted, greedy, "Greedy"},
		{"op-spot-revoke", spotRevoke, op, "Op"},
	}
}

func genWorkload(t *testing.T) []workload.Batch {
	t.Helper()
	g, err := workload.NewGenerator(workload.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return g.Generate()
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return d
	}
	return d / den
}

// TestEngineAgreesWithReference is the differential acceptance criterion:
// optimized engine vs. reference simulator across all golden configurations,
// including the three fault scenarios, with the invariant checker watching
// the optimized run.
func TestEngineAgreesWithReference(t *testing.T) {
	for _, dc := range diffCases() {
		dc := dc
		t.Run(dc.name, func(t *testing.T) {
			chk := invariant.New()
			optCfg := dc.cfg()
			optCfg.Tracer = chk
			opt, err := engine.Run(optCfg, dc.sched(), genWorkload(t))
			if err != nil {
				t.Fatalf("optimized run: %v", err)
			}
			if vs := chk.Finish(); len(vs) > 0 {
				t.Errorf("invariant checker found %d violation(s) on the optimized run; first: %s",
					chk.Total(), vs[0])
			}

			ref, err := refsim.Run(dc.cfg(), dc.ref, genWorkload(t))
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			checkF := func(field string, ov, rv float64) {
				if d := relDiff(ov, rv); d > relTol {
					t.Errorf("%s: engine %.17g, refsim %.17g (rel diff %.3g > %.0g)",
						field, ov, rv, d, relTol)
				}
			}
			checkF("makespan", opt.Makespan, ref.Makespan)
			checkF("speedup", opt.Speedup, ref.Speedup)
			checkF("burstRatio", opt.BurstRatio, ref.BurstRatio)
			checkF("icUtil", opt.ICUtil, ref.ICUtil)
			checkF("ecUtil", opt.ECUtil, ref.ECUtil)
			if opt.Jobs != ref.Jobs || opt.ChunksCreated != ref.ChunksCreated {
				t.Errorf("jobs/chunks: engine %d/%d, refsim %d/%d",
					opt.Jobs, opt.ChunksCreated, ref.Jobs, ref.ChunksCreated)
			}
			if opt.UploadedBytes != ref.UploadedBytes || opt.DownloadedBytes != ref.DownloadedBytes {
				t.Errorf("transferred bytes: engine %d/%d, refsim %d/%d",
					opt.UploadedBytes, opt.DownloadedBytes, ref.UploadedBytes, ref.DownloadedBytes)
			}
			if len(opt.SiteUtils) != len(ref.SiteUtils) {
				t.Fatalf("site count: engine %d, refsim %d", len(opt.SiteUtils), len(ref.SiteUtils))
			}
			for i := range opt.SiteUtils {
				checkF("siteUtil", opt.SiteUtils[i], ref.SiteUtils[i])
				if opt.SiteBursts[i] != ref.SiteBursts[i] {
					t.Errorf("site %d bursts: engine %d, refsim %d",
						i, opt.SiteBursts[i], ref.SiteBursts[i])
				}
			}
			checkF("costRental", opt.CostRental, ref.CostRental)
			checkF("costCommitted", opt.CostCommitted, ref.CostCommitted)
			if c := dc.cfg().Cost; c != nil && c.Budget > 0 && opt.CostCommitted > c.Budget+relTol {
				t.Errorf("committed spend %.9f exceeds budget %.9f", opt.CostCommitted, c.Budget)
			}

			// OO series: the optimized sla path (sorted cache) against the
			// reference recomputation (insertion sort, O(n²) evaluation).
			optOO := opt.Records.OOSeries(ooInterval, 0, "oo")
			refM := refsim.Recompute(ref.Records, ooInterval, 0)
			if len(optOO.Points) != len(refM.OOSeries) {
				t.Fatalf("OO series length: engine %d, refsim %d",
					len(optOO.Points), len(refM.OOSeries))
			}
			for i, p := range optOO.Points {
				q := refM.OOSeries[i]
				if d := relDiff(p.T, q.T); d > relTol {
					t.Errorf("OO[%d] time: engine %.17g, refsim %.17g", i, p.T, q.T)
				}
				if d := relDiff(p.V, q.O); d > relTol {
					t.Errorf("OO[%d] bytes at t=%.0f: engine %.17g, refsim %.17g",
						i, p.T, p.V, q.O)
				}
			}
			checkF("refMakespan", opt.Makespan, refM.Makespan)
			checkF("refBurstRatio", opt.BurstRatio, refM.BurstRatio)
		})
	}
}

// TestShardedEngineConservesReference pins the sharded path against the
// reference stack on placement-invariant quantities: speculative placement
// may move jobs between machines (so SLA metrics legitimately drift from
// the monolithic reference), but it must never create, drop or
// double-deliver work, and the invariant checker must stay silent over the
// optimistic commit path.
func TestShardedEngineConservesReference(t *testing.T) {
	for _, n := range []int{2, 4} {
		chk := invariant.New()
		cfg := engine.Config{NetSeed: 43}
		cfg.Tracer = chk
		cfg.Shards = &shard.Config{Count: n, Seed: 7, MaxRetries: 2}
		cfg.NewScheduler = func() sched.Scheduler { return sched.Greedy{} }
		opt, err := engine.Run(cfg, sched.Greedy{}, genWorkload(t))
		if err != nil {
			t.Fatalf("shards=%d: sharded run: %v", n, err)
		}
		if vs := chk.Finish(); len(vs) > 0 {
			t.Errorf("shards=%d: invariant checker found %d violation(s); first: %s",
				n, chk.Total(), vs[0])
		}
		ref, err := refsim.Run(engine.Config{NetSeed: 43}, "Greedy", genWorkload(t))
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if opt.Jobs != ref.Jobs {
			t.Errorf("shards=%d: job count diverged: sharded %d, refsim %d",
				n, opt.Jobs, ref.Jobs)
		}
		if opt.Makespan <= 0 {
			t.Errorf("shards=%d: sharded run reported non-positive makespan %v", n, opt.Makespan)
		}
	}
}

// TestReferenceSchedulersMatchProduction pins the scheduler twins directly:
// same engine mode (reference) under both the production and the naive
// scheduler must yield identical records, isolating scheduler arithmetic
// from event-core differences.
func TestReferenceSchedulersMatchProduction(t *testing.T) {
	for _, dc := range diffCases() {
		dc := dc
		t.Run(dc.name, func(t *testing.T) {
			prodCfg := dc.cfg()
			prodCfg.Reference = true
			prod, err := engine.Run(prodCfg, dc.sched(), genWorkload(t))
			if err != nil {
				t.Fatalf("production scheduler: %v", err)
			}
			ref, err := refsim.Run(dc.cfg(), dc.ref, genWorkload(t))
			if err != nil {
				t.Fatalf("reference scheduler: %v", err)
			}
			pr, rr := prod.Records.Records(), ref.Records.Records()
			if len(pr) != len(rr) {
				t.Fatalf("record count: production %d, reference %d", len(pr), len(rr))
			}
			for i := range pr {
				if pr[i] != rr[i] {
					t.Fatalf("record %d diverged:\n  production %+v\n  reference  %+v",
						i, pr[i], rr[i])
				}
			}
		})
	}
}
